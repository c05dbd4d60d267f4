// Package cloudstone implements the paper's customized Cloudstone
// benchmark (§III-A): the Web 2.0 social-events-calendar workload with the
// web tier removed, so every user operation is issued directly against the
// database tier as a single SQL statement through the connection pool and
// the read/write-splitting proxy.
package cloudstone

import (
	"fmt"

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
// paper's figures: 300 for the 50/50 runs, 600 for the 80/20 runs). It is
// deterministic: the same scale loads the same bytes on any server, on any
// run — a cluster runs it on its master only and starts replicas from that
// engine's image.
func Preload(scale int) func(*server.DBServer) error {
	return PreloadOwned(scale, nil)
}

// PreloadOwned is Preload restricted to an ownership predicate: a row is
// inserted only when owns(table, key) grants it, where key is the table's
// shard key (users/events by id, attendance/event_tags/comments by
// event_id, friends by user_id). Row ids are assigned before the predicate
// runs, so a row keeps the same id whichever cell it lands on and the
// union of all cells' data equals the unsharded preload exactly. A nil
// predicate loads everything (single-cluster mode).
func PreloadOwned(scale int, owns func(table string, key int64) bool) func(*server.DBServer) error {
	if owns == nil {
		owns = func(string, int64) bool { return true }
	}
	return func(srv *server.DBServer) error {
		sess := srv.Session("")
		for _, sql := range DDL {
			if _, err := srv.ExecFree(sess, sql); err != nil {
				return fmt.Errorf("cloudstone: schema: %w", err)
			}
		}
		if _, err := srv.ExecFree(sess, "USE "+DatabaseName); err != nil {
			return err
		}
		exec := func(table string, key int64, sql string, args ...sqlengine.Value) error {
			if !owns(table, key) {
				return nil
			}
			_, err := srv.ExecFree(sess, sql, args...)
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
}
