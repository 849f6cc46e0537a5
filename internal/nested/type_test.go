package nested

import "testing"

func TestTypeOfRunningExampleResult(t *testing.T) {
	// The result data of Tab. 2 has type
	// {{<user:<id_str:String, name:String>, tweets:{{<text:String>}}>}}  (Ex. 4.2)
	result := Bag(
		Item(
			F("user", Item(F("id_str", StringVal("lp")), F("name", StringVal("Lisa Paul")))),
			F("tweets", Bag(Item(F("text", StringVal("Hello World"))))),
		),
	)
	got := TypeOf(result).String()
	want := "{{<user:<id_str:string, name:string>, tweets:{{<text:string>}}>}}"
	if got != want {
		t.Errorf("TypeOf = %s\nwant      %s", got, want)
	}
}

func TestTypeCompatibility(t *testing.T) {
	full := TypeOf(Bag(Int(1)))
	empty := TypeOf(Bag())
	if !Compatible(full, empty) {
		t.Error("empty bag must be union-compatible with any bag")
	}
	if !Compatible(TypeOf(Int(1)), TypeOf(Double(1.5))) {
		t.Error("int and double should unify")
	}
	if Compatible(TypeOf(Int(1)), TypeOf(StringVal("x"))) {
		t.Error("int and string must not unify")
	}
	if !Compatible(TypeOf(Null()), TypeOf(Item())) {
		t.Error("null is compatible with anything")
	}
	nestedA := TypeOf(Item(F("u", Item(F("id", StringVal("x"))))))
	nestedB := TypeOf(Item(F("u", Item(F("id", StringVal("y"))))))
	if !Compatible(nestedA, nestedB) {
		t.Error("recursively equal item types must be compatible")
	}
}

func TestTypeGetAndStringForms(t *testing.T) {
	ty := TypeOf(sampleTweet())
	u, ok := ty.Get("user")
	if !ok || u.Kind != KindItem {
		t.Fatalf("type Get(user) = %v, %v", u, ok)
	}
	if _, ok := ty.Get("nope"); ok {
		t.Error("type Get(nope) should fail")
	}
	if got := TypeOf(Set(Int(1))).String(); got != "{int}" {
		t.Errorf("set type = %s, want {int}", got)
	}
	if got := TypeOf(Bag()).String(); got != "{{?}}" {
		t.Errorf("empty bag type = %s, want {{?}}", got)
	}
}
