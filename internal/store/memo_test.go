package store

import (
	"encoding/json"
	"errors"
	"testing"
)

// TestMemo walks one record kind through the memo's cases: storeless and
// unkeyed calls compute without persisting, a cold call computes and
// persists, a warm call serves without computing, and a failed compute
// persists nothing.
func TestMemo(t *testing.T) {
	calls := 0
	compute := func() (payload, error) {
		calls++
		return payload{N: calls, S: "v"}, nil
	}

	if v, hit, err := (Memo[payload]{Kind: "p"}).Do("fp", compute); err != nil || hit || v.N != 1 {
		t.Fatalf("storeless memo: %+v hit=%v err=%v", v, hit, err)
	}

	s, err := Open(t.TempDir(), "memo")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := Memo[payload]{Store: s, Kind: "p"}
	if _, hit, err := m.Do("", compute); err != nil || hit {
		t.Fatalf("unkeyed call: hit=%v err=%v", hit, err)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 || st.Puts != 0 {
		t.Fatalf("unkeyed call touched the store: %+v", st)
	}

	cold, hit, err := m.Do("fp", compute)
	if err != nil || hit || cold.N != 3 {
		t.Fatalf("cold call: %+v hit=%v err=%v", cold, hit, err)
	}
	warm, hit, err := m.Do("fp", compute)
	if err != nil || !hit || warm != cold || calls != 3 {
		t.Fatalf("warm call: %+v hit=%v err=%v calls=%d", warm, hit, err, calls)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v, want hits=1 misses=1 puts=1", st)
	}

	boom := errors.New("boom")
	if _, _, err := m.Do("other", func() (payload, error) { return payload{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("compute error lost: %v", err)
	}
	if st := s.Stats(); st.Puts != 1 {
		t.Fatalf("a failed compute was persisted: %+v", st)
	}
}

// TestMemoUndecodablePayloadIsAMiss: a record whose payload the codec
// rejects is counted as a miss and recomputed, never served, so misses=0
// on a run means nothing was recomputed.
func TestMemoUndecodablePayloadIsAMiss(t *testing.T) {
	s, err := Open(t.TempDir(), "memo")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("p", Key("fp"), map[string]string{"schema": "old"}); err != nil {
		t.Fatal(err)
	}
	m := Memo[payload]{Store: s, Kind: "p", Codec: Codec[payload]{
		Decode: func(raw json.RawMessage) (payload, bool) {
			var p payload
			err := json.Unmarshal(raw, &p)
			return p, err == nil && p.S != ""
		},
	}}
	v, hit, err := m.Do("fp", func() (payload, error) { return payload{N: 9, S: "new"}, nil })
	if err != nil || hit || v.N != 9 {
		t.Fatalf("undecodable record served: %+v hit=%v err=%v", v, hit, err)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats %+v, want hits=0 misses=1", st)
	}
}
