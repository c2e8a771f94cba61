package main

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The checkers compare what a restore returned against the generator's
// own record of what it committed (the oracle) or against properties the
// method must have. They never compare against an earlier run's output.

// checkEqual reports the first difference between a restored table and
// the oracle of every key's last committed value.
func checkEqual(want, got map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("restored %d keys, committed %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("key %q missing after restore", k)
		}
		if g != want[k] {
			return fmt.Errorf("key %q restored %.16q…, committed %.16q…", k, g, want[k])
		}
	}
	return nil
}

// seqKey names row i of a paced sequence; the zero padding keeps rows
// in commit order under a sorted scan.
func seqKey(i int64) string { return fmt.Sprintf("s%010d", i) }

// checkPrefix checks a recovery after a mid-stream cut: the recovered
// sequence rows are exactly rows 0..n-1, the counter row says n, n does
// not exceed the commits made, and at most safety acknowledged commits
// are missing.
func checkPrefix(rows map[string]string, counter string, acked int64, safety int) (int64, error) {
	n := int64(len(rows))
	for i := int64(0); i < n; i++ {
		if _, ok := rows[seqKey(i)]; !ok {
			return 0, fmt.Errorf("sequence has a gap at row %d of %d recovered rows", i, n)
		}
	}
	c, err := strconv.ParseInt(counter, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("counter row %q: %w", counter, err)
	}
	if c != n {
		return 0, fmt.Errorf("counter row says %d, %d sequence rows recovered", c, n)
	}
	if n > acked {
		return 0, fmt.Errorf("recovered %d rows, only %d were committed", n, acked)
	}
	if lost := acked - n; lost > int64(safety) {
		return 0, fmt.Errorf("lost %d acknowledged commits, Safety allows %d", lost, safety)
	}
	return n, nil
}

// checkTenant checks a tenant's restore: equal to its oracle, and no key
// belonging to another tenant (every tenant writes keys prefixed with its
// own id and "/").
func checkTenant(id string, want, got map[string]string) error {
	for k := range got {
		if !strings.HasPrefix(k, id+"/") {
			return fmt.Errorf("tenant %s restored foreign key %q", id, k)
		}
	}
	return checkEqual(want, got)
}

// selfTest feeds each checker a deliberately damaged input and fails if
// any checker accepts it; every run does this before its workload.
func selfTest() error {
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	if err := checkEqual(want, map[string]string{"a": "1", "b": "2", "c": "3"}); err != nil {
		return fmt.Errorf("checkEqual rejects an exact restore: %w", err)
	}
	if checkEqual(want, map[string]string{"a": "1", "b": "2"}) == nil {
		return errors.New("checkEqual accepts a dropped commit")
	}
	if checkEqual(want, map[string]string{"a": "1", "b": "2", "c": "old"}) == nil {
		return errors.New("checkEqual accepts a stale value")
	}

	rows := func(idx ...int64) map[string]string {
		m := make(map[string]string)
		for _, i := range idx {
			m[seqKey(i)] = "x"
		}
		return m
	}
	if _, err := checkPrefix(rows(0, 1, 2), "3", 5, 2); err != nil {
		return fmt.Errorf("checkPrefix rejects a valid prefix: %w", err)
	}
	if _, err := checkPrefix(rows(0, 1, 3), "3", 5, 10); err == nil {
		return errors.New("checkPrefix accepts a gap in a sequence")
	}
	if _, err := checkPrefix(rows(0, 1, 2), "2", 5, 10); err == nil {
		return errors.New("checkPrefix accepts a counter that disagrees with the rows")
	}
	if _, err := checkPrefix(rows(0, 1, 2), "3", 6, 2); err == nil {
		return errors.New("checkPrefix accepts S+1 lost commits")
	}

	tw := map[string]string{"t1/a": "1"}
	if err := checkTenant("t1", tw, map[string]string{"t1/a": "1"}); err != nil {
		return fmt.Errorf("checkTenant rejects an isolated restore: %w", err)
	}
	if checkTenant("t1", tw, map[string]string{"t1/a": "1", "t2/a": "1"}) == nil {
		return errors.New("checkTenant accepts a foreign tenant's key")
	}
	return nil
}
