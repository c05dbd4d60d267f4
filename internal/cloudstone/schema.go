// Package cloudstone implements the paper's customized Cloudstone
// benchmark (§III-A): the Web 2.0 social-events-calendar workload with the
// web tier removed, so every user operation is issued directly against the
// database tier as a single SQL statement through the connection pool and
// the read/write-splitting proxy.
package cloudstone

import (
	"fmt"
	"strings"
	"sync"

	"cloudrepl/internal/server"
	"cloudrepl/internal/sqlengine"
)

// DatabaseName is the application database.
const DatabaseName = "cloudstone"

// DDL is the social-events-calendar schema (an Olio-style calendar:
// users create, join, tag and comment on events).
var DDL = []string{
	"CREATE DATABASE IF NOT EXISTS " + DatabaseName,
	`CREATE TABLE IF NOT EXISTS ` + DatabaseName + `.users (
		id BIGINT PRIMARY KEY,
		username VARCHAR(32) NOT NULL,
		created TIMESTAMP,
		UNIQUE uq_username (username)
	)`,
	`CREATE TABLE IF NOT EXISTS ` + DatabaseName + `.events (
		id BIGINT PRIMARY KEY,
		creator_id BIGINT NOT NULL,
		title VARCHAR(100) NOT NULL,
		description VARCHAR(255),
		event_date TIMESTAMP,
		created TIMESTAMP,
		INDEX idx_creator (creator_id)
	)`,
	`CREATE TABLE IF NOT EXISTS ` + DatabaseName + `.attendance (
		id BIGINT PRIMARY KEY,
		event_id BIGINT NOT NULL,
		user_id BIGINT NOT NULL,
		created TIMESTAMP,
		INDEX idx_att_event (event_id),
		INDEX idx_att_user (user_id)
	)`,
	`CREATE TABLE IF NOT EXISTS ` + DatabaseName + `.tags (
		id BIGINT PRIMARY KEY,
		name VARCHAR(32) NOT NULL
	)`,
	`CREATE TABLE IF NOT EXISTS ` + DatabaseName + `.event_tags (
		id BIGINT PRIMARY KEY,
		event_id BIGINT NOT NULL,
		tag_id BIGINT NOT NULL,
		INDEX idx_et_event (event_id),
		INDEX idx_et_tag (tag_id)
	)`,
	`CREATE TABLE IF NOT EXISTS ` + DatabaseName + `.comments (
		id BIGINT PRIMARY KEY,
		event_id BIGINT NOT NULL,
		user_id BIGINT NOT NULL,
		body VARCHAR(255),
		created TIMESTAMP,
		INDEX idx_cm_event (event_id)
	)`,
	`CREATE TABLE IF NOT EXISTS ` + DatabaseName + `.friends (
		id BIGINT PRIMARY KEY,
		user_id BIGINT NOT NULL,
		friend_id BIGINT NOT NULL,
		INDEX idx_fr_user (user_id)
	)`,
}

// NumTags is the fixed tag vocabulary size.
const NumTags = 20

// FriendsPerUser is the fixed out-degree of the preloaded social graph.
// Friend edges deliberately span the user id space (offsets of about a
// third of the scale), so under sharding a user's friends mostly live on
// other cells and the friend-feed page generates real cross-shard reads.
const FriendsPerUser = 3

// Preload returns a cluster preload function that installs the schema and
// the initial data set at the given scale ("initial data size" in the
// paper's figures: 300 for the 50/50 runs, 600 for the 80/20 runs).
//
// A process loads each data set once: the first Preload of a scale runs the
// SQL load (LoadSQL) on a scratch engine and keeps that engine's image and
// the binlog position the load reached, and every server Preload is given —
// the first one too — is DBServer.Restore'd from them. A server therefore
// comes out the same whatever the process ran before: same rows, statistics,
// commit version, GC and plan counters and log position, no plans. The
// server must be empty (a Restore replaces its whole engine); one that has a
// catalog is refused. A cluster runs this on its master only and starts
// replicas from the master's image — the same image, while nothing has
// written the master. Every server restored from it shares its tables, rows
// and indexes both, until the server's first write to a table copies that
// table (sqlengine's restore): a table a run never writes is one copy per
// process, however many nodes read it.
func Preload(scale int) func(*server.DBServer) error {
	return PreloadOwned(scale, nil)
}

// PreloadOwned is Preload restricted to an ownership predicate: a row is
// inserted only when owns(table, key) grants it, where key is the table's
// shard key (users/events by id, attendance/event_tags/comments by
// event_id, friends by user_id). Row ids are assigned before the predicate
// runs, so a row keeps the same id whichever cell it lands on and the
// union of all cells' data equals the unsharded preload exactly. A nil
// predicate loads everything (single-cluster mode), the data set that
// ownsAll names, without asking anything. owns must be a function
// of its arguments: it is asked once per (table, shard key) pair when the
// returned function runs, and the answers name the data set the process
// loads once. It is asked table-major (keyOf): every key of one table, in
// ascending order, before the next table. A predicate may rely on that order
// to be fast, resolving a table once for its run of keys, but not to be right:
// its answers must not depend on the order it is asked in.
func PreloadOwned(scale int, owns func(table string, key int64) bool) func(*server.DBServer) error {
	return func(srv *server.DBServer) error {
		if !srv.Eng.Empty() {
			return fmt.Errorf("cloudstone: preload %s: the server already has a catalog, which a preload would replace", srv.Name)
		}
		k := allOwned(scale)
		if owns != nil {
			k = keyOf(scale, owns)
		}
		img := loaded(k)
		if img.err != nil {
			return img.err
		}
		return srv.Restore(img.snap, img.pos)
	}
}

// LoadSQL loads the data set at scale onto eng by SQL, statement by
// statement, as Preload does once per process: eng's commit hook sees every
// statement, DDL included, and eng keeps the load's plans. It is what a
// measurement of the SQL load itself runs.
func LoadSQL(eng *sqlengine.Engine, scale int) error {
	return load(eng, scale, ownsAll)
}

func ownsAll(string, int64) bool { return true }

// keyedTables are the tables the load deals by a shard key in 1..scale, in
// load order; tags, keyed 1..NumTags, come before them.
var keyedTables = [...]string{"users", "events", "attendance", "event_tags", "comments", "friends"}

// imageKey names one data set: its scale and what the ownership predicate
// answered for each (table, shard key) pair the load asks about, one bit
// each — NumTags + 6·scale of them.
type imageKey struct {
	scale int
	owned string
}

// keyOf asks owns about every (table, shard key) pair the load deals, table
// by table in load order and each table's keys ascending, and keeps the
// answers as the key of the data set they name.
func keyOf(scale int, owns func(string, int64) bool) imageKey {
	bits := make([]byte, (NumTags+len(keyedTables)*scale+7)/8)
	i := 0
	ask := func(table string, n int) {
		for key := 1; key <= n; key++ {
			if owns(table, int64(key)) {
				bits[i/8] |= 1 << (i % 8)
			}
			i++
		}
	}
	ask("tags", NumTags)
	for _, table := range keyedTables {
		ask(table, scale)
	}
	return imageKey{scale, string(bits)}
}

// allOwned is keyOf(scale, ownsAll) built with no predicate: every bit of
// the NumTags + 6·scale set, the padding bits of the last byte clear.
func allOwned(scale int) imageKey {
	n := NumTags + len(keyedTables)*scale
	var b strings.Builder
	b.Grow((n + 7) / 8)
	for range n / 8 {
		b.WriteByte(0xff)
	}
	if r := n % 8; r != 0 {
		b.WriteByte(1<<r - 1)
	}
	return imageKey{scale, b.String()}
}

// owns reads the predicate's answer for (table, key) back out of k, so the
// load builds exactly the data set k names.
func (k imageKey) owns(table string, key int64) bool {
	i := int(key) - 1
	for t, name := range keyedTables {
		if name == table {
			i += NumTags + t*k.scale
		}
	}
	return k.owned[i/8]&(1<<(i%8)) != 0
}

// image is one memoised data set, loaded by the first caller to ask: the
// scratch engine's image and the binlog position its load reached — the
// writes it committed, DDL included.
type image struct {
	once sync.Once
	snap *sqlengine.Snapshot
	pos  uint64
	err  error
}

// images holds an *image per imageKey for the life of the process. A
// snapshot is immutable, so one serves every server on any goroutine, and
// parallel sweeps share it.
var images sync.Map

// loaded returns the data set k names, loading it on a scratch engine the
// first time any goroutine asks. A data set already there costs no image.
func loaded(k imageKey) *image {
	v, ok := images.Load(k)
	if !ok {
		v, _ = images.LoadOrStore(k, new(image))
	}
	img := v.(*image)
	img.once.Do(func() {
		eng := sqlengine.NewEngine()
		eng.OnCommit = func(_ string, writes []sqlengine.LoggedWrite) { img.pos += uint64(len(writes)) }
		if img.err = load(eng, k.scale, k.owns); img.err == nil {
			img.snap = eng.Snapshot()
		}
	})
	return img
}

// load runs the SQL load on eng: the schema, then the rows owns grants.
func load(eng *sqlengine.Engine, scale int, owns func(table string, key int64) bool) error {
	sess := eng.NewSession("")
	for _, sql := range DDL {
		if _, err := sess.Exec(sql); err != nil {
			return fmt.Errorf("cloudstone: schema: %w", err)
		}
	}
	if _, err := sess.Exec("USE " + DatabaseName); err != nil {
		return err
	}
	exec := func(table string, key int64, sql string, args ...sqlengine.Value) error {
		if !owns(table, key) {
			return nil
		}
		_, err := sess.Exec(sql, args...)
		return err
	}
	for i := 1; i <= NumTags; i++ {
		if err := exec("tags", int64(i), "INSERT INTO tags (id, name) VALUES (?, ?)",
			sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprintf("tag%02d", i))); err != nil {
			return err
		}
	}
	for i := 1; i <= scale; i++ {
		if err := exec("users", int64(i), "INSERT INTO users (id, username, created) VALUES (?, ?, ?)",
			sqlengine.NewInt(int64(i)),
			sqlengine.NewString(fmt.Sprintf("user%06d", i)),
			sqlengine.NewInt(0)); err != nil {
			return err
		}
	}
	for i := 1; i <= scale; i++ {
		creator := int64(i%scale) + 1
		if err := exec("events", int64(i),
			"INSERT INTO events (id, creator_id, title, description, event_date, created) VALUES (?, ?, ?, ?, ?, ?)",
			sqlengine.NewInt(int64(i)),
			sqlengine.NewInt(creator),
			sqlengine.NewString(fmt.Sprintf("Event %d meetup", i)),
			sqlengine.NewString("A social events calendar entry used as seed data."),
			sqlengine.NewInt(int64(i)*1000000),
			sqlengine.NewInt(int64(i))); err != nil {
			return err
		}
	}
	// Two attendees, two tags and one comment per event. Ids advance
	// whether or not the row is owned, keeping them globally stable.
	attID, etID, cmID := int64(1), int64(1), int64(1)
	for i := 1; i <= scale; i++ {
		for k := 0; k < 2; k++ {
			if err := exec("attendance", int64(i),
				"INSERT INTO attendance (id, event_id, user_id, created) VALUES (?, ?, ?, ?)",
				sqlengine.NewInt(attID), sqlengine.NewInt(int64(i)),
				sqlengine.NewInt(int64((i+k)%scale)+1), sqlengine.NewInt(0)); err != nil {
				return err
			}
			attID++
			if err := exec("event_tags", int64(i),
				"INSERT INTO event_tags (id, event_id, tag_id) VALUES (?, ?, ?)",
				sqlengine.NewInt(etID), sqlengine.NewInt(int64(i)),
				sqlengine.NewInt(int64((i+7*k)%NumTags)+1)); err != nil {
				return err
			}
			etID++
		}
		if err := exec("comments", int64(i),
			"INSERT INTO comments (id, event_id, user_id, body, created) VALUES (?, ?, ?, ?, ?)",
			sqlengine.NewInt(cmID), sqlengine.NewInt(int64(i)),
			sqlengine.NewInt(int64(i%scale)+1),
			sqlengine.NewString("Looking forward to this one."),
			sqlengine.NewInt(0)); err != nil {
			return err
		}
		cmID++
	}
	frID := int64(1)
	for i := 1; i <= scale; i++ {
		for j := 1; j <= FriendsPerUser; j++ {
			friend := int64((i-1+j*(scale/FriendsPerUser)+j)%scale) + 1
			if err := exec("friends", int64(i),
				"INSERT INTO friends (id, user_id, friend_id) VALUES (?, ?, ?)",
				sqlengine.NewInt(frID), sqlengine.NewInt(int64(i)),
				sqlengine.NewInt(friend)); err != nil {
				return err
			}
			frID++
		}
	}
	return nil
}
