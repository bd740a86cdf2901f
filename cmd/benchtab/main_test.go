package main

import (
	"strings"
	"testing"

	"wsnva/internal/experiments"
)

// TestPick resolves -only lists against the registry: case and spaces are
// ignored and All's order kept, and an unknown or empty ID is an error
// naming it rather than a silent drop.
func TestPick(t *testing.T) {
	for _, tc := range []struct {
		only, want, err string
	}{
		{only: "", want: ids(experiments.All)},
		{only: "E3,E8", want: "E3 E8"},
		{only: " e8 , a1,E3", want: "E3 E8 A1"},
		{only: "E3,E99", err: `"E99"`},
		{only: "e3,,E25", err: `""`},
	} {
		picked, err := pick(tc.only)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("pick(%q) error = %v, want one naming %s", tc.only, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("pick(%q): %v", tc.only, err)
		}
		if got := ids(picked); got != tc.want {
			t.Errorf("pick(%q) = %s, want %s", tc.only, got, tc.want)
		}
	}
}

func ids(es []experiments.Experiment) string {
	var s []string
	for _, e := range es {
		s = append(s, e.ID)
	}
	return strings.Join(s, " ")
}
