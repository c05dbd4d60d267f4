package sqlengine

import (
	"testing"
)

// FuzzParse feeds arbitrary strings through the SQL parser. Parse must never
// panic, and any statement it accepts must satisfy the render fixed point:
// String() re-parses, and re-rendering reproduces the same text — the same
// normalization invariant the plan cache keys on, and the property that makes
// a statement's rendering safe to ship in the binlog. The seeds extend the
// dialect corpus with the planner PR's surface: JOIN ... ON chains, LEFT
// JOIN, GROUP BY/HAVING with grouped aggregates, and EXPLAIN [ANALYZE].
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM t",
		"SELECT a, b FROM t JOIN u ON u.id = t.uid",
		"SELECT a FROM t JOIN u ON u.id = t.uid JOIN v ON v.id = u.vid WHERE t.a = 1 ORDER BY v.b DESC LIMIT 10",
		"SELECT a FROM t LEFT JOIN u ON u.id = t.uid AND u.live = 1",
		"SELECT g, COUNT(*), AVG(x) FROM t GROUP BY g",
		"SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING COUNT(*) > 2 ORDER BY n DESC",
		"SELECT COUNT(DISTINCT g) FROM t WHERE x BETWEEN 1 AND 9",
		"SELECT DISTINCT g FROM t ORDER BY g LIMIT 3 OFFSET 1",
		"EXPLAIN SELECT a FROM t JOIN u ON u.id = t.uid WHERE t.a = ?",
		"EXPLAIN ANALYZE SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 1",
		"SELECT t.a, u.b FROM t, u WHERE t.id = u.tid",
		"SELECT a FROM t JOIN u ON",
		"SELECT FROM GROUP BY HAVING",
		"SELECT a FROM t GROUP BY",
		"EXPLAIN EXPLAIN SELECT 1",
		"SELECT ((((1",
		"JOIN JOIN ON ON",
		// Identifiers that only lex back as themselves inside back-quotes.
		"SELECT` `",
		"SELECT `select`, `a b`.`c?d` AS `` FROM `from` AS `as` WHERE `1x` = ?",
		"INSERT INTO `my db`.`t-1` (`key`, `a?b`) VALUES (?, `f g`(1))",
		"UPDATE `update` SET `set` = 1 WHERE `where` = 2",
		"CREATE TABLE `table` (`int` INT PRIMARY KEY, b TEXT, INDEX `index`(`int`, b))",
		"USE `use`",
		"SELECT-0.",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql) // must not panic on any input
		if err != nil {
			return
		}
		r1 := st.String()
		st2, err := Parse(r1)
		if err != nil {
			t.Fatalf("rendering does not re-parse:\n  in: %q\n  r1: %q\n  err: %v", sql, r1, err)
		}
		if r2 := st2.String(); r1 != r2 {
			t.Fatalf("render not a fixed point:\n  in: %q\n  r1: %q\n  r2: %q", sql, r1, r2)
		}
	})
}
