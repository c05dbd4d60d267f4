package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cloudrepl/internal/cloudstone"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sqlengine"
)

// The load generator is the benchmark's own: the Cloudstone page mix of
// internal/cloudstone/driver.go is frozen here so that a later change to the
// repo's driver cannot change the traffic the benchmark sends. Every emulated
// user draws pages, arguments, insert ids and think times from a private
// stream derived only from (-seed, user index); nothing is drawn from the
// simulation's RNG, so the program under test receives generated inputs only.

// thinkTime is the mean of the exponential pause between a user's pages.
const thinkTime = 7 * time.Second

// stream is a splitmix64 generator: one per emulated user.
type stream struct{ s uint64 }

func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// newStream derives user's private stream from the run seed.
func newStream(seed int64, user int) *stream {
	return &stream{s: mix64(uint64(seed)+0x9e3779b97f4a7c15) ^ mix64(uint64(user)*0xd1342543de82ef95+1)}
}

func (r *stream) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform draw in [0, 1).
func (r *stream) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *stream) intn(n int) int { return int(r.float() * float64(n)) }

// exp returns an exponential draw with the given mean.
func (r *stream) exp(mean time.Duration) time.Duration {
	return time.Duration(-math.Log(1-r.float()) * float64(mean))
}

// check says what a page's reply must look like to count as correct.
type check uint8

const (
	checkNone  check = iota
	checkPoint       // point read of a preloaded id: exactly one row
	checkWrite       // write: exactly one affected row
)

// page is one user operation. Every page is a single statement except the
// friend feed, which reads the user's friend list and then their newest
// events in one IN-list query (feedUID > 0, sql and args empty).
type page struct {
	name    string
	read    bool
	sql     string
	args    []sqlengine.Value
	feedUID int64
	check   check
}

const (
	sqlHome       = "SELECT id, title, event_date FROM events ORDER BY created DESC LIMIT 10"
	sqlEventFeed  = cloudstone.EventFeedSQL
	sqlDetail     = "SELECT * FROM events WHERE id = ?"
	sqlAttendees  = "SELECT user_id FROM attendance WHERE event_id = ?"
	sqlSearchText = "SELECT id, title FROM events WHERE title LIKE ? LIMIT 10"
	sqlSearchTag  = "SELECT e.id, e.title FROM event_tags et JOIN events e ON e.id = et.event_id WHERE et.tag_id = ? LIMIT 20"
	sqlProfile    = "SELECT * FROM users WHERE id = ?"
	sqlUserEvents = "SELECT id, title FROM events WHERE creator_id = ?"
	sqlTagCloud   = "SELECT tag_id, COUNT(*) AS cnt FROM event_tags GROUP BY tag_id ORDER BY cnt DESC LIMIT 10"
	sqlFriends    = "SELECT friend_id FROM friends WHERE user_id = ?"

	sqlCreateEvent = "INSERT INTO events (id, creator_id, title, description, event_date, created) VALUES (?, ?, ?, ?, UTC_MICROS(), UTC_MICROS())"
	sqlJoinEvent   = "INSERT INTO attendance (id, event_id, user_id, created) VALUES (?, ?, ?, UTC_MICROS())"
	sqlTagEvent    = "INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, ?)"
	sqlAddComment  = "INSERT INTO comments (id, event_id, user_id, body, created) VALUES (?, ?, ?, ?, UTC_MICROS())"
	sqlUpdateEvent = "UPDATE events SET description = ? WHERE id = ?"

	pageCreateEvent = "create-event"
)

// idsPerUser is the width of each user's private insert-id range. Ranges
// start far above the preload's ids and never overlap, so inserts cannot
// collide whatever order the simulation interleaves users in.
const idsPerUser = 1_000_000

// user is one emulated user's generator state.
type user struct {
	rng        *stream
	nextID     int64
	scale      int
	readRatio  float64
	friendFeed bool
}

func newUser(seed int64, index int, w *workload) *user {
	return &user{
		rng:        newStream(seed, index),
		nextID:     int64(index+1) * idsPerUser,
		scale:      w.Scale,
		readRatio:  w.ReadRatio,
		friendFeed: w.Cells > 1,
	}
}

func (u *user) seedID() sqlengine.Value { return sqlengine.NewInt(int64(u.rng.intn(u.scale)) + 1) }

func (u *user) insertID() int64 {
	u.nextID++
	return u.nextID
}

func (u *user) tagID() sqlengine.Value {
	return sqlengine.NewInt(int64(u.rng.intn(cloudstone.NumTags)) + 1)
}

// think draws the pause before the user's next page.
func (u *user) think() time.Duration { return u.rng.exp(thinkTime) }

// nextPage draws the user's next page: 9 read pages and 5 write pages with
// the weights of the repo's driver at the commit this benchmark was cut
// from; on sharded cells a quarter of reads are the friend feed.
func (u *user) nextPage() page {
	if u.rng.float() < u.readRatio {
		return u.readPage()
	}
	return u.writePage()
}

func (u *user) readPage() page {
	r := u.rng
	if u.friendFeed && r.float() < 0.25 {
		return page{name: "friend-feed", read: true, feedUID: int64(r.intn(u.scale)) + 1}
	}
	one := func(v sqlengine.Value) []sqlengine.Value { return []sqlengine.Value{v} }
	switch w := r.float(); {
	case w < 0.20:
		return page{name: "home", read: true, sql: sqlHome}
	case w < 0.25:
		return page{name: "event-feed", read: true, sql: sqlEventFeed, args: one(u.seedID())}
	case w < 0.40:
		return page{name: "event-detail", read: true, sql: sqlDetail, args: one(u.seedID()), check: checkPoint}
	case w < 0.50:
		return page{name: "attendees", read: true, sql: sqlAttendees, args: one(u.seedID())}
	case w < 0.60:
		pat := fmt.Sprintf("%%%d m%%", r.intn(u.scale))
		return page{name: "search-text", read: true, sql: sqlSearchText, args: one(sqlengine.NewString(pat))}
	case w < 0.75:
		return page{name: "search-tag", read: true, sql: sqlSearchTag, args: one(u.tagID())}
	case w < 0.85:
		return page{name: "profile", read: true, sql: sqlProfile, args: one(u.seedID()), check: checkPoint}
	case w < 0.95:
		return page{name: "user-events", read: true, sql: sqlUserEvents, args: one(u.seedID())}
	default:
		return page{name: "tag-cloud", read: true, sql: sqlTagCloud}
	}
}

func (u *user) writePage() page {
	r := u.rng
	switch w := r.float(); {
	case w < 0.25:
		id := u.insertID()
		return page{name: pageCreateEvent, sql: sqlCreateEvent, check: checkWrite, args: []sqlengine.Value{
			sqlengine.NewInt(id), u.seedID(),
			sqlengine.NewString(fmt.Sprintf("Event %d meetup", id)),
			sqlengine.NewString("created during the benchmark run"),
		}}
	case w < 0.55:
		return page{name: "join-event", sql: sqlJoinEvent, check: checkWrite, args: []sqlengine.Value{
			sqlengine.NewInt(u.insertID()), u.seedID(), u.seedID(),
		}}
	case w < 0.75:
		return page{name: "tag-event", sql: sqlTagEvent, check: checkWrite, args: []sqlengine.Value{
			sqlengine.NewInt(u.insertID()), u.seedID(), u.tagID(),
		}}
	case w < 0.95:
		return page{name: "add-comment", sql: sqlAddComment, check: checkWrite, args: []sqlengine.Value{
			sqlengine.NewInt(u.insertID()), u.seedID(), u.seedID(),
			sqlengine.NewString("sounds great, count me in"),
		}}
	default:
		return page{name: "update-event", sql: sqlUpdateEvent, check: checkWrite, args: []sqlengine.Value{
			sqlengine.NewString("updated during the benchmark run"), u.seedID(),
		}}
	}
}

// execFunc runs one statement through whatever seam the caller measures.
type execFunc func(sql string, args []sqlengine.Value) (*sqlengine.Result, error)

// costModel is the calibrated statement cost model every node runs with; the
// generator prices each reply's ExecStats with it to get the virtual CPU the
// statement was charged.
var costModel = server.DefaultCostModel()

// pageStats is what the generator observes of one page from outside.
type pageStats struct {
	stmts    int
	examined int
	returned int
	indexed  int           // statements that used an index
	busy     time.Duration // nominal CPU charged, by the cost model
}

// run executes the page through exec and checks the reply.
func (pg *page) run(exec execFunc) (pageStats, error) {
	var st pageStats
	note := func(res *sqlengine.Result) {
		st.stmts++
		st.examined += res.Stats.RowsExamined
		st.returned += res.Stats.RowsReturned
		st.busy += costModel.StatementCost(res.Stats, false)
		if res.Stats.UsedIndex {
			st.indexed++
		}
	}
	if pg.feedUID == 0 {
		res, err := exec(pg.sql, pg.args)
		if err != nil {
			return st, err
		}
		note(res)
		switch pg.check {
		case checkPoint:
			if res.Set == nil || len(res.Set.Rows) != 1 {
				return st, fmt.Errorf("%s: point read of a preloaded id returned %d rows, want 1", pg.name, rowCount(res))
			}
		case checkWrite:
			if res.Stats.RowsAffected != 1 {
				return st, fmt.Errorf("%s: write affected %d rows, want 1", pg.name, res.Stats.RowsAffected)
			}
		}
		return st, nil
	}
	res, err := exec(sqlFriends, []sqlengine.Value{sqlengine.NewInt(pg.feedUID)})
	if err != nil {
		return st, err
	}
	note(res)
	if res.Set == nil || len(res.Set.Rows) != cloudstone.FriendsPerUser {
		return st, fmt.Errorf("friend-feed: user %d has %d friends, want %d", pg.feedUID, rowCount(res), cloudstone.FriendsPerUser)
	}
	rows := res.Set.Rows
	args := make([]sqlengine.Value, len(rows))
	for i, r := range rows {
		args[i] = r[0]
	}
	feed := "SELECT id, title FROM events WHERE creator_id IN (?" + strings.Repeat(", ?", len(rows)-1) +
		") ORDER BY created DESC LIMIT 10"
	res, err = exec(feed, args)
	if err != nil {
		return st, err
	}
	note(res)
	return st, nil
}

func rowCount(res *sqlengine.Result) int {
	if res.Set == nil {
		return 0
	}
	return len(res.Set.Rows)
}
