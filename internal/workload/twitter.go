package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"pebble/internal/engine"
	"pebble/internal/nested"
)

// Sentinel values the Twitter generator plants deterministically so that the
// scenario provenance queries always have matching result items.
const (
	// HotUserID is a user that authors and is mentioned in many tweets.
	HotUserID   = "hotuser"
	HotUserName = "Holly Otter"
	// BTSHashtag appears in a stable fraction of tweets (scenario T5).
	BTSHashtag = "BTS"
	// GoodWord appears in a stable fraction of tweet texts (scenario T1).
	GoodWord = "good"
)

var (
	twitterWords = []string{
		"hello", "world", "today", "just", "really", GoodWord, "morning",
		"coffee", "music", "show", "love", "game", "news", "photo", "live",
		"stream", "album", "tour", "win", "vote",
	}
	twitterFirstNames = []string{
		"Lisa", "Lauren", "John", "Holly", "Maria", "Ken", "Ada", "Noor",
		"Sven", "Yuki", "Omar", "Ines", "Paul", "Tara", "Leo", "Mina",
	}
	twitterLastNames = []string{
		"Paul", "Smith", "Miller", "Otter", "Garcia", "Tanaka", "Khan",
		"Larsen", "Weber", "Rossi", "Novak", "Silva", "Chen", "Dubois",
	}
	twitterHashtags = []string{
		BTSHashtag, "news", "music", "love", "win", "goals", "art", "food",
		"travel", "tech",
	}
	twitterLangs = []string{"en", "de", "ja", "es", "fr"}
)

// The shapes of the generated items, one per kind: every tweet, user,
// hashtag, ... points to the same attribute-name table.
var (
	tweetShape = nested.NewShape("text", "user", "user_mentions", "retweet_cnt", "hashtags", "media",
		"created_at", "lang", "favorite_count", "possibly_sensitive", "source", "meta")
	userShape    = nested.NewShape("id_str", "name")
	hashtagShape = nested.NewShape("text")
	mediaShape   = nested.NewShape("media_url", "type")
	placeShape   = nested.NewShape("country", "city", "coordinates")
	metaShape    = nested.NewShape("place", "quote_count", "reply_count", "truncated", "seq",
		"attr_00", "attr_01", "attr_02", "attr_03", "attr_04", "attr_05", "attr_06", "attr_07", "attr_08", "attr_09", "attr_10", "attr_11")
)

// twitterUser is one entry of the deterministic user pool.
type twitterUser struct {
	id   string
	name string
}

func twitterUserPool(r *rand.Rand, n int) []twitterUser {
	pool := make([]twitterUser, 0, n+1)
	pool = append(pool, twitterUser{id: HotUserID, name: HotUserName})
	for i := 1; i <= n; i++ {
		name := twitterFirstNames[r.Intn(len(twitterFirstNames))] + " " +
			twitterLastNames[r.Intn(len(twitterLastNames))]
		pool = append(pool, twitterUser{id: fmt.Sprintf("u%05d", i), name: name})
	}
	return pool
}

func userItem(u twitterUser) nested.Value {
	return userShape.Item(nested.StringVal(u.id), nested.StringVal(u.name))
}

// GenerateTwitter builds the nested Twitter dataset at the given scale. Every
// tweet has the schema of the running example (text, user, user_mentions,
// retweet_cnt) plus hashtags, media, and a wide block of further attributes
// standing in for the ~1000 attributes of real tweets (Sec. 7.2). Generation
// is fully deterministic in the scale's seed.
func GenerateTwitter(s Scale) []nested.Value {
	s = s.withDefaults()
	r := rand.New(rand.NewSource(s.Seed))
	n := s.Tweets()
	users := twitterUserPool(r, max(16, n/20))
	out := make([]nested.Value, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, genTweet(r, i, users))
	}
	return out
}

func genTweet(r *rand.Rand, seq int, users []twitterUser) nested.Value {
	author := users[r.Intn(len(users))]
	// Every 10th tweet is authored by the hot user, making it a reliable
	// target for scenario queries.
	if seq%10 == 0 {
		author = users[0]
	}
	// Mentions: 0–4 users; every 7th tweet mentions the hot user.
	nMentions := r.Intn(5)
	mentions := make([]nested.Value, 0, nMentions+1)
	var handles []string
	if seq%7 == 0 {
		mentions = append(mentions, userItem(users[0]))
		handles = append(handles, "@"+HotUserID)
	}
	for len(mentions) < nMentions {
		u := users[r.Intn(len(users))]
		mentions = append(mentions, userItem(u))
		handles = append(handles, "@"+u.id)
	}
	// Hashtags: 0–3; every 5th tweet carries #BTS.
	nTags := r.Intn(4)
	tags := make([]nested.Value, 0, nTags+1)
	var tagWords []string
	if seq%5 == 0 {
		tags = append(tags, hashtagShape.Item(nested.StringVal(BTSHashtag)))
		tagWords = append(tagWords, "#"+BTSHashtag)
	}
	for len(tags) < nTags {
		tag := twitterHashtags[r.Intn(len(twitterHashtags))]
		tags = append(tags, hashtagShape.Item(nested.StringVal(tag)))
		tagWords = append(tagWords, "#"+tag)
	}
	// Media: 0–2 entries.
	nMedia := r.Intn(3)
	media := make([]nested.Value, 0, nMedia)
	for m := 0; m < nMedia; m++ {
		media = append(media, mediaShape.Item(
			nested.StringVal(fmt.Sprintf("https://pic.example/%d-%d.jpg", seq, m)),
			nested.StringVal("photo"),
		))
	}
	// Text: 3–7 words plus handles and hashtags.
	nWords := 3 + r.Intn(5)
	words := make([]string, 0, nWords+len(handles)+len(tagWords))
	for w := 0; w < nWords; w++ {
		words = append(words, twitterWords[r.Intn(len(twitterWords))])
	}
	words = append(words, handles...)
	words = append(words, tagWords...)
	text := strings.Join(words, " ")

	return tweetShape.Item(
		nested.StringVal(text),
		userItem(author),
		nested.Bag(mentions...),
		nested.Int(int64(r.Intn(5))), // retweet_cnt
		nested.Bag(tags...),
		nested.Bag(media...),
		nested.StringVal(fmt.Sprintf("2019-%02d-%02dT%02d:00:00Z", 1+r.Intn(12), 1+r.Intn(28), r.Intn(24))),
		nested.StringVal(twitterLangs[r.Intn(len(twitterLangs))]),
		nested.Int(int64(r.Intn(100))), // favorite_count
		nested.Bool(r.Intn(20) == 0),   // possibly_sensitive
		nested.StringVal("web"),
		tweetMeta(r, seq),
	)
}

// tweetMeta is a wide nested block standing in for the long tail of tweet
// attributes (place, entities, counters, flags, ...) that real tweets carry.
func tweetMeta(r *rand.Rand, seq int) nested.Value {
	vals := make([]nested.Value, 0, metaShape.Len())
	vals = append(vals,
		placeShape.Item(
			nested.StringVal("wonderland"),
			nested.StringVal(fmt.Sprintf("city%02d", r.Intn(40))),
			nested.Bag(
				nested.Double(float64(r.Intn(360))-180),
				nested.Double(float64(r.Intn(180))-90),
			),
		),
		nested.Int(int64(r.Intn(10))), // quote_count
		nested.Int(int64(r.Intn(10))), // reply_count
		nested.Bool(false),            // truncated
		nested.Int(int64(seq)),
	)
	for len(vals) < metaShape.Len() { // attr_NN
		vals = append(vals, nested.Int(int64(r.Intn(1000))))
	}
	return metaShape.Item(vals...)
}

// TwitterInput wraps the generated tweets as the named input the Twitter
// scenarios read ("tweets.json"), partitioned for the engine.
func TwitterInput(s Scale, partitions int) map[string]*engine.Dataset {
	gen := engine.NewIDGen(1)
	return map[string]*engine.Dataset{
		"tweets.json": engine.NewDataset("tweets.json", GenerateTwitter(s), partitions, gen),
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
