package nested

import (
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestReaderEdgeTable runs documents at the edges of the grammar, the number
// rule and the string repair rule through the reader and the reference.
func TestReaderEdgeTable(t *testing.T) {
	const bad = "\ufffd" // what a byte or escape that is not text is repaired to
	for _, tc := range []struct {
		doc  string
		want string // Value.String() when accepted, "" when rejected
	}{
		// numbers
		{`-0`, `0`}, {`0`, `0`}, {`-0.0`, `-0`}, {`9223372036854775807`, `9223372036854775807`},
		{`-9223372036854775808`, `-9223372036854775808`}, {`9223372036854775808`, `9.223372036854776e+18`},
		{`-9223372036854775809`, `-9.223372036854776e+18`}, {`123456789012345678901234567890`, `1.2345678901234568e+29`},
		{`1.0`, `1`}, {`1e3`, `1000`}, {`1E-2`, `0.01`}, {`1e+2`, `100`}, {`0e0`, `0`}, {`1e-400`, `0`},
		{`1e400`, ``}, {`-1e400`, ``}, {`01`, ``}, {`-01`, ``}, {`1.`, ``}, {`.5`, ``}, {`-`, ``}, {`+1`, ``}, {`1e`, ``},
		{`1e+`, ``}, {`1.e3`, ``}, {`--1`, ``}, {`1.5.5`, ``}, {`0x10`, ``}, {`1_000`, ``}, {`Infinity`, ``}, {`NaN`, ``},
		// strings: text, escapes, surrogates
		{`"é"`, `"é"`}, {`"😀"`, `"😀"`}, {`"\u00e9"`, `"é"`}, {`"\ud83d\ude00"`, `"😀"`}, {`"\uD83D\uDE00"`, `"😀"`},
		{`"\ud83d"`, `"` + bad + `"`}, {`"\ud83dx"`, `"` + bad + `x"`}, {`"\ude00"`, `"` + bad + `"`},
		{`"\ud83d\u0041"`, `"` + bad + `A"`}, {`"\ud83d\ud83d\ude00"`, `"` + bad + `😀"`}, {`"\ud83d\n"`, `"` + bad + `\n"`},
		{`"\ude00\ud83d"`, `"` + bad + bad + `"`}, {`"\ufffd"`, `"` + bad + `"`},
		{`"\ud83d\ude0"`, ``}, {`"\ud83d\u"`, ``}, {`"\ud83d\`, ``}, {`"\ud83d`, ``}, {`"\u12"`, ``}, {`"\u12G4"`, ``},
		{`"\/\b\f\n\r\t\"\\"`, `"/\b\f\n\r\t\"\\"`}, {`"\u0000"`, `"\x00"`}, {`"\x"`, ``}, {`"\a"`, ``}, {`"\U0041"`, ``},
		{`"abc`, ``}, {`"abc\`, ``}, {`"abc\"`, ``}, {`"`, ``}, {`'a'`, ``},
		// strings: raw bytes that are not UTF-8, raw control bytes
		{"\"a\xffb\"", `"a` + bad + `b"`}, {"\"\xed\xa0\x80\"", `"` + bad + bad + bad + `"`}, {"\"\xc3\"", `"` + bad + `"`},
		{"\"\xf0\x9f\x98\"", `"` + bad + bad + bad + `"`}, {"\"\xef\xbf\xbd\"", `"` + bad + `"`}, {"\"\x7f\"", "\"\\x7f\""},
		{"\"ok\xffthen\\n\"", `"ok` + bad + `then\n"`},
		{"\"a\x01b\"", ``}, {"\"a\tb\"", ``}, {"\"a\nb\"", ``}, {"\"\\\x01\"", ``}, {"\"\xff\x01\"", ``},
		// objects and arrays
		{`{"a":1,"a":2}`, `{a: 1, a: 2}`}, {`{"a":1}`, `{a: 1}`}, {`{"":{}}`, `{: {}}`}, {`{"a" 1}`, ``}, {`{"a":}`, ``},
		{`{"a"}`, ``}, {`{a:1}`, ``}, {`{1:2}`, ``}, {`{"a":1,}`, ``}, {`{,}`, ``}, {`{"a":1 "b":2}`, ``}, {`{"a"::1}`, ``},
		{`{"a":1]`, ``}, {`{`, ``}, {`{"a"`, ``}, {`{"a":`, ``}, {`{"a":1`, ``}, {`{"a":1,`, ``}, {`}`, ``}, {`{null:1}`, ``},
		{`[1 2]`, ``}, {`[1,]`, ``}, {`[,1]`, ``}, {`[,]`, ``}, {`[1,,2]`, ``}, {`[1}`, ``}, {`[`, ``}, {`[1`, ``}, {`[1,`, ``},
		{`]`, ``}, {`[]]`, ``}, {`[][]`, ``}, {`[[],{}]`, `[[], {}]`}, {" [ 1 , { \"a\" : [ ] } ]\r\n\t", `[1, {a: []}]`},
		{"[1,\v2]", ``}, {"[1,\f2]", ``}, {"\u00a0[]", ``}, {"[]\x00", ``}, {"\ufeff[]", ``},
		// literals and the top level
		{`true`, `true`}, {`false`, `false`}, {`null`, `null`}, {`tru`, ``}, {`nullx`, ``}, {`[nullx]`, ``}, {`True`, ``},
		{`truefalse`, ``}, {`nul`, ``}, {`n`, ``}, {`fals`, ``}, {`[truex]`, ``}, {`[1x]`, ``},
		{``, ``}, {` `, ``}, {"\n", ``}, {`"s"`, `"s"`}, {`12`, `12`}, {`-1.5`, `-1.5`}, {` 1 `, `1`}, {`1 2`, ``},
		{`{} {}`, ``}, {`{}x`, ``}, {`,`, ``}, {`:`, ``},
	} {
		v, err := agree(t, []byte(tc.doc))
		switch {
		case err != nil && tc.want != "":
			t.Errorf("%q rejected: %v", tc.doc, err)
		case err == nil && tc.want == "":
			t.Errorf("%q accepted as %s", tc.doc, v)
		case err == nil && v.String() != tc.want:
			t.Errorf("%q = %s, want %s", tc.doc, v, tc.want)
		}
	}
}

// TestReaderKinds pins the number rule by kind, which String() cannot show
// (1.0 and 1 print alike).
func TestReaderKinds(t *testing.T) {
	for doc, want := range map[string]Kind{
		`-0`: KindInt, `1`: KindInt, `9223372036854775807`: KindInt, `-9223372036854775808`: KindInt,
		`9223372036854775808`: KindDouble, `1.0`: KindDouble, `1e3`: KindDouble, `1E-2`: KindDouble, `-0.0`: KindDouble,
	} {
		if v, err := agree(t, []byte(doc)); err != nil || v.Kind() != want {
			t.Errorf("%s: kind %s (%v), want %s", doc, v.Kind(), err, want)
		}
	}
}

func TestReaderDepthLimit(t *testing.T) {
	for _, tc := range []struct{ open, inner, close string }{{"[", "", "]"}, {`{"a":`, "null", "}"}} {
		nest := func(n int) []byte {
			return []byte(strings.Repeat(tc.open, n) + tc.inner + strings.Repeat(tc.close, n))
		}
		if _, err := agree(t, nest(maxDepth)); err != nil {
			t.Errorf("depth %d of %q rejected: %v", maxDepth, tc.open, err)
		}
		if _, err := agree(t, nest(maxDepth+1)); err == nil {
			t.Errorf("depth %d of %q accepted", maxDepth+1, tc.open)
		}
	}
	// The input that used to overflow the stack is an error, and promptly,
	// at both entry points.
	bomb := []byte("{}\n" + strings.Repeat("[", 1_000_000))
	start := time.Now()
	if _, err := ParseJSON(bomb[3:]); err == nil || !strings.Contains(err.Error(), "deeper than 10000") {
		t.Errorf("depth 1M: %v", err)
	}
	if _, err := ParseJSONLines(bomb); err == nil || !strings.HasPrefix(err.Error(), "line 2:") {
		t.Errorf("depth 1M in JSON lines: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("rejecting depth 1M took %v", d)
	}
	// Siblings do not count against the limit.
	wide := []byte("[" + strings.Repeat("[[]],", 2*maxDepth) + "[]]")
	if v, err := ParseJSON(wide); err != nil || v.Len() != 2*maxDepth+1 {
		t.Errorf("wide array: %d elems, %v", v.Len(), err)
	}
}

// TestReaderJSONLines covers the line discipline: what separates lines, what
// is trimmed, what is skipped and which line an error names.
func TestReaderJSONLines(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
		want int    // values, when accepted
		line string // "line N:" the error must start with, when rejected
	}{
		{"empty", "", 0, ""},
		{"only newlines", "\n\n\n", 0, ""},
		{"CRLF", "{\"a\":1}\r\n{\"a\":2}\r\n", 2, ""},
		{"a lone CR does not end a line", "{\"a\":1}\r{\"a\":2}\n", 0, "line 1:"},
		{"no final newline", "{}\n[1]", 2, ""},
		{"whitespace-only lines", "{}\n \t \n\r\n\u00a0\n\v\f\n{}\n", 2, ""},
		{"NBSP, VT, FF, NEL, U+2028 around a line", "\u00a0{}\u00a0\n\v[]\f\n\u0085{}\u2028\n", 3, ""},
		{"NBSP inside a line is not JSON white space", "{\u00a0}\n", 0, "line 1:"},
		{"value split across two lines", "{}\n{\"a\":\n1}\n", 0, "line 2:"},
		{"string split across two lines", "[\"a\nb\"]\n", 0, "line 1:"},
		{"error after blank lines", "\n\n{}\n\n  \nnot json\n", 0, "line 6:"},
		{"error on the last line, no newline", "{}\n{}\n{", 0, "line 3:"},
		{"two values on one line", "{} {}\n", 0, "line 1:"},
		{"scalars are values too", "1\n\"s\"\nnull\n", 3, ""},
		{"invalid UTF-8 outside a string", "{}\n\xff\n", 0, "line 2:"},
	} {
		got, err := ParseJSONLines([]byte(tc.in))
		want, refErr := refParseJSONLines([]byte(tc.in))
		if (err == nil) != (refErr == nil) {
			t.Errorf("%s: reader error %v, reference error %v", tc.name, err, refErr)
			continue
		}
		if err != nil {
			if tc.line == "" || !strings.HasPrefix(err.Error(), tc.line) || !strings.HasPrefix(refErr.Error(), tc.line) {
				t.Errorf("%s: error %q (reference %q), want prefix %q", tc.name, err, refErr, tc.line)
			}
			continue
		}
		if tc.line != "" || len(got) != tc.want || len(want) != tc.want || (got == nil) != (want == nil) {
			t.Errorf("%s: %d values (reference %d), want %d, error prefix %q", tc.name, len(got), len(want), tc.want, tc.line)
			continue
		}
		for i := range got {
			if !sameShape(got[i], want[i]) {
				t.Errorf("%s: value %d: reader %s, reference %s", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestReaderCopiesNeverViews: a parsed value shares no memory with the input
// buffer or with the reader's scratch stacks, so overwriting the one and
// appending to a parsed slice change no parsed value.
func TestReaderCopiesNeverViews(t *testing.T) {
	src := `{"name":"plain","esc":"a\tb","user":{"id":7,"tags":["x","y"]},"list":[{"k":"v"},[1,2],"s"]}` + "\n" +
		`{"name":"second","esc":"é","user":{"id":8,"tags":[]},"list":[]}` + "\n"
	want, err := ParseJSONLines([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte(src)
	got, err := ParseJSONLines(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	var grow func(v Value)
	grow = func(v Value) { // v.vals: an item's attribute values or a bag's elements
		if len(v.vals) > 0 {
			if cap(v.vals) != len(v.vals) {
				t.Errorf("values of %s: len %d, cap %d", v, len(v.vals), cap(v.vals))
			}
			_ = append(v.vals, StringVal("intruder"))
		}
		for _, e := range v.vals {
			grow(e)
		}
	}
	for _, v := range got {
		grow(v)
	}
	for i := range want {
		if !sameShape(got[i], want[i]) {
			t.Errorf("row %d changed:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestReaderInternsNames: the rows of one ParseJSONLines call share one
// shape, and with it one string per attribute name, so a row of one
// attribute costs one allocation (its value slice), not two or three.
func TestReaderInternsNames(t *testing.T) {
	const rows = 1000
	data := []byte(strings.Repeat(`{"an_attribute_name_too_long_for_any_small_string_trick":1}`+"\n", rows))
	allocs := testing.AllocsPerRun(5, func() {
		vals, err := ParseJSONLines(data)
		if err != nil || len(vals) != rows {
			t.Fatalf("%d rows, %v", len(vals), err)
		}
		if a, b := vals[0].FieldName(0), vals[rows-1].FieldName(0); unsafe.StringData(a) != unsafe.StringData(b) {
			t.Fatal("first and last row hold two copies of the attribute name")
		}
	})
	if allocs > rows*3/2 {
		t.Errorf("%v allocations for %d one-attribute rows: names are not shared", allocs, rows)
	}
}

// TestReaderAllocatesNoMoreOnOneLine: a one-line document, the size of a
// pattern or spec constant, costs no more allocations than it did when every
// string and every value slice was an allocation of its own (the counts of
// that reader, Go 1.24). The shared chunk and string replace several
// allocations only when a document has several values; here it is the
// scratch stack and the shape names that pay for them.
func TestReaderAllocatesNoMoreOnOneLine(t *testing.T) {
	for _, tc := range []struct {
		doc    string
		before float64
	}{
		{`{"a":"x","b":[1,2]}`, 14},
		{`{"name":"plain","tags":["x","yz"],"n":{"k":1}}`, 26},
	} {
		data := []byte(tc.doc)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ParseJSON(data); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations", tc.doc, allocs)
		if allocs > tc.before {
			t.Errorf("%s: %v allocations, more than the %v of the reader that allocated per value", tc.doc, allocs, tc.before)
		}
	}
}

// FuzzParseJSONMatchesReference: for arbitrary bytes the reader and the
// reference accept or reject together and, when they accept, return the
// same value, as one document and as JSON lines.
func FuzzParseJSONMatchesReference(f *testing.F) {
	for _, seed := range []string{
		`{"a": 1, "b": [true, null, "x"], "c": {"d": 2.5}}`,
		`[]`, `{}`, `"s"`, `-12`, `1e3`, `{"a":{"b":{"c":[[1],[2]]}}}`,
		`"\ud83d\ude00 \ud83d x \u00e9 \/\b\f"`, "\"\xff\xed\xa0\x80\"", `9223372036854775808`, `-0`, `[1e400]`,
		"{\"a\":1}\r\n\u00a0{\"a\":\n2}\n", `{"a":1,"a":[{}, [], ""]}`,
		// predicted keys: the same key again, once written with an escape;
		// a key that shares a prefix with the predicted one, either way
		"{\"a\":\"x\"}\n{\"a\":\"y\"}", "{\"a\":\"x\"}\n" + `{"\u0061":"y\t"}` + "\n{\"a\":\"z\"}",
		"{\"ab\":1}\n{\"abc\":2}", "{\"abc\":1}\n{\"ab\":2}\n{\"ab\":3,\"abc\":\"\"}", "{\"a\":1}\n{\"a\\\"\":2}",
		// string placeholders: empty strings beside non-empty ones, and a
		// string document
		`{"a":"","b":"x","c":["","yz",""],"d":""}`, `["","",""]`, `""`, `"only"`,
		// carved slices: a bag longer than one chunk
		"[" + strings.Repeat(`1,`, chunkValues) + `"a\n"]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		agree(t, data)
		got, err := ParseJSONLines(data)
		want, refErr := refParseJSONLines(data)
		if (err == nil) != (refErr == nil) || len(got) != len(want) {
			t.Fatalf("lines: reader %d values, error %v; reference %d values, error %v", len(got), err, len(want), refErr)
		}
		if err != nil {
			if line := strings.SplitN(refErr.Error(), ":", 2)[0]; !strings.HasPrefix(err.Error(), line+":") {
				t.Fatalf("lines: reader error %q, reference error %q", err, refErr)
			}
			return
		}
		for i := range got {
			if !sameShape(got[i], want[i]) || got[i].String() != want[i].String() {
				t.Fatalf("lines: value %d: reader %s, reference %s", i, got[i], want[i])
			}
		}
	})
}
