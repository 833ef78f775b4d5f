package main

import (
	"slices"
	"strings"
	"testing"
)

// TestParseOnly pins -only: ids match case-insensitively after trimming,
// and a list naming any id outside the evaluation is refused whole, with
// an error that names the bad id and the valid ones.
func TestParseOnly(t *testing.T) {
	for _, tc := range []struct {
		list    string
		want    []string // selected ids, sorted; nil when refused
		unknown string   // the id the error must name
	}{
		{list: "X3", unknown: `"X3"`},
		{list: "x9", unknown: `"x9"`},
		{list: "E1,e99", unknown: `"e99"`},
		{list: " e1 , a2", want: []string{"A2", "E1"}},
		{list: "e10,E10", want: []string{"E10"}},
	} {
		got, err := parseOnly(tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseOnly(%q) = %v, want an error", tc.list, got)
				continue
			}
			if !strings.Contains(err.Error(), tc.unknown) || !strings.Contains(err.Error(), "E1, E2") {
				t.Errorf("parseOnly(%q) error %q does not name %s and the valid ids", tc.list, err, tc.unknown)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseOnly(%q): %v", tc.list, err)
			continue
		}
		var ids []string
		for id := range got {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		if !slices.Equal(ids, tc.want) {
			t.Errorf("parseOnly(%q) = %v, want %v", tc.list, ids, tc.want)
		}
	}
}

// TestParseOnlyEmptySelectsAll pins the default: no -only runs every
// experiment, and every id in the evaluation is distinct.
func TestParseOnlyEmptySelectsAll(t *testing.T) {
	got, err := parseOnly("")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evaluation) {
		t.Fatalf("empty -only selects %d ids, the evaluation has %d experiments", len(got), len(evaluation))
	}
}
