package mc

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestOptionsJSONRoundTrip(t *testing.T) {
	orig := DefaultOptions(BFS)
	orig.HashBits = 24
	orig.Workers = 4
	orig.MaxStates = 12345
	orig.MaxMemory = 64 << 20
	orig.Timeout = 1500 * time.Millisecond
	orig.Compact = false

	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Options
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// Wire round-trips exactly the client-settable projection; the
	// process-local fields are zero on both sides here.
	if back != orig {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, orig)
	}
}

// TestOptionsUnmarshalOverlays: absent fields keep the receiver's values —
// the receiver is the tri-state's "default" arm.
func TestOptionsUnmarshalOverlays(t *testing.T) {
	opts := DefaultOptions(DFS)
	if !opts.Compact || !opts.Inclusion {
		t.Fatal("test assumes compact store and inclusion default on")
	}
	if err := json.Unmarshal([]byte(`{"workers": 3}`), &opts); err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 3 {
		t.Errorf("workers = %d, want 3", opts.Workers)
	}
	if !opts.Compact || !opts.Inclusion || opts.Search != DFS {
		t.Errorf("absent fields did not keep defaults: %+v", opts)
	}
	// Explicit false overrides the default — the old *bool tri-state.
	if err := json.Unmarshal([]byte(`{"compact": false}`), &opts); err != nil {
		t.Fatal(err)
	}
	if opts.Compact {
		t.Error("explicit compact=false ignored")
	}
}

// TestOptionsUnmarshalRejectsRetiredKeys: the pre-/v1 aliases are gone
// and, like any unknown key, fail the decode rather than being dropped.
func TestOptionsUnmarshalRejectsRetiredKeys(t *testing.T) {
	for _, body := range []string{
		`{"no_inclusion": true}`,
		`{"no_active_clocks": true}`,
		`{"max_memory_mb": 2}`,
		`{"inclusion": true, "max_memory_mb": 2}`,
	} {
		opts := DefaultOptions(DFS)
		if err := json.Unmarshal([]byte(body), &opts); err == nil {
			t.Errorf("%s: accepted, want an unknown-field error", body)
		}
	}
}

func TestOptionsUnmarshalRejectsNegativeTimeout(t *testing.T) {
	opts := DefaultOptions(DFS)
	if err := json.Unmarshal([]byte(`{"timeout_seconds": -1}`), &opts); err == nil {
		t.Error("negative timeout accepted")
	}
}

// TestCanonicalJSONCollapsesSpellings: spellings the engine runs
// identically share one canonical encoding (the serve cache-key
// ingredient), and every field is explicit in it.
func TestCanonicalJSONCollapsesSpellings(t *testing.T) {
	a := DefaultOptions(BSH)
	b := DefaultOptions(BSH)
	a.Workers = 0
	b.Workers = 8 // BSH is inherently sequential; normalization pins workers
	ca, err := a.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Errorf("equivalent options canonicalize differently:\n%s\n%s", ca, cb)
	}
	for _, field := range []string{
		"search", "hash_bits", "coarse_hash", "inclusion", "compact",
		"extrapolate", "classic_extrapolation", "active_clocks", "workers",
		"max_states", "max_memory_bytes", "timeout_seconds", "time_clock",
		"time_horizon",
	} {
		if !bytes.Contains(ca, []byte(`"`+field+`"`)) {
			t.Errorf("canonical encoding omits %q: %s", field, ca)
		}
	}
}

func TestSearchOrderText(t *testing.T) {
	for _, s := range []SearchOrder{BFS, DFS, BSH, BestTime} {
		text, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back SearchOrder
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Errorf("round trip %v -> %q -> %v", s, text, back)
		}
	}
	if _, err := ParseSearchOrder("quantum"); err == nil {
		t.Error("unknown order accepted")
	}
}
