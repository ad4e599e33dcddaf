package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"unicode/utf8"
)

// seedLines returns record lines as writeStore produces them (newline
// included), the shape every fuzz corpus below starts from.
func seedLines(f *testing.F, n int) [][]byte {
	f.Helper()
	lines := make([][]byte, n)
	for i := range lines {
		raw, err := json.Marshal(payload{N: i, S: "v"})
		if err != nil {
			f.Fatal(err)
		}
		lines[i], err = encodeLine(Record{Kind: "result", Key: Key(fmt.Sprintf("fp-%03d", i)), Payload: raw})
		if err != nil {
			f.Fatal(err)
		}
	}
	return lines
}

// checksumOK verifies a line's "crc<TAB>body" framing independently of
// decodeLine: eight hex digits, then the CRC-32C of everything after the tab.
func checksumOK(line []byte) bool {
	tab := bytes.IndexByte(line, '\t')
	if tab != 8 {
		return false
	}
	want, err := strconv.ParseUint(string(line[:tab]), 16, 32)
	return err == nil && uint32(want) == crc32.Checksum(line[tab+1:], crcTable)
}

// FuzzDecodeLine checks the record-line codec: arbitrary bytes never panic,
// every accepted line carries a valid checksum and a non-empty kind and key,
// and any record with a non-empty kind and key survives encodeLine then
// decodeLine (payload compared in compact form).
func FuzzDecodeLine(f *testing.F) {
	for i, l := range seedLines(f, 3) {
		line := l[:len(l)-1]
		f.Add(line, "result", Key(fmt.Sprintf("fp-%03d", i)), []byte(fmt.Sprintf(`{"n":%d,"s":"v"}`, i)))
		flipped := bytes.Clone(line)
		flipped[len(flipped)/2] ^= 0x20
		f.Add(flipped, "kind", "key", []byte(`[1, 2.5, "<&>", null]`))
		f.Add(line[:len(line)-9], "", "k", []byte(`{}`))
	}
	f.Fuzz(func(t *testing.T, line []byte, kind, key string, raw []byte) {
		if rec, ok := decodeLine(line); ok {
			if !checksumOK(line) {
				t.Fatalf("accepted line with a bad checksum: %q", line)
			}
			if rec.Kind == "" || rec.Key == "" {
				t.Fatalf("accepted record without kind or key: %q", line)
			}
		}

		// Round trip. encoding/json replaces invalid UTF-8 in strings, so
		// only valid kinds and keys are expected back byte for byte.
		if kind == "" || key == "" || !utf8.ValidString(kind) || !utf8.ValidString(key) || !json.Valid(raw) {
			return
		}
		enc, err := encodeLine(Record{Kind: kind, Key: key, Payload: raw})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if bytes.IndexByte(enc, '\n') != len(enc)-1 {
			t.Fatalf("encoded line is not exactly one line: %q", enc)
		}
		rec, ok := decodeLine(enc[:len(enc)-1])
		if !ok {
			t.Fatalf("encoded line rejected: %q", enc)
		}
		if rec.Kind != kind || rec.Key != key {
			t.Fatalf("kind/key %q/%q came back as %q/%q", kind, key, rec.Kind, rec.Key)
		}
		// json.Marshal compacts a RawMessage and HTML-escapes its strings.
		var want, got bytes.Buffer
		if err := json.Compact(&want, raw); err != nil {
			t.Fatal(err)
		}
		var esc bytes.Buffer
		json.HTMLEscape(&esc, want.Bytes())
		if err := json.Compact(&got, rec.Payload); err != nil {
			t.Fatalf("decoded payload is not JSON: %v", err)
		}
		if !bytes.Equal(esc.Bytes(), got.Bytes()) {
			t.Fatalf("payload %s came back as %s", esc.Bytes(), got.Bytes())
		}
	})
}

// FuzzReadShard feeds arbitrary file contents through readShard: every line
// is accounted for exactly once (record, dupe, corrupt or truncated), and the
// merged view is exactly the first checksum-valid record per (kind, key).
func FuzzReadShard(f *testing.F) {
	lines := seedLines(f, 4)
	file := bytes.Join(lines, nil)
	f.Add(file)
	f.Add(file[:len(file)-9])
	flipped := bytes.Clone(file)
	flipped[len(lines[0])+len(lines[1])/2] ^= 0x20
	f.Add(flipped)
	f.Add(append(bytes.Clone(file), file...))
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		name := filepath.Join(t.TempDir(), "shard.jsonl")
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := &Store{mem: map[string]map[string]json.RawMessage{}}
		if err := s.readShard(name); err != nil {
			t.Fatal(err)
		}

		// Reference merge: split on newlines (a trailing newline ends the
		// last line, it does not start an empty one), keep the first
		// checksum-valid record per (kind, key).
		split := bytes.Split(data, []byte{'\n'})
		if len(data) == 0 || data[len(data)-1] == '\n' {
			split = split[:len(split)-1]
		}
		want := map[string]map[string]json.RawMessage{}
		accepted, records := 0, 0
		for _, line := range split {
			rec, ok := decodeLine(line)
			if !ok {
				continue
			}
			if !checksumOK(line) {
				t.Fatalf("decodeLine accepted a line with a bad checksum: %q", line)
			}
			accepted++
			if want[rec.Kind] == nil {
				want[rec.Kind] = map[string]json.RawMessage{}
			}
			if _, dup := want[rec.Kind][rec.Key]; !dup {
				want[rec.Kind][rec.Key] = rec.Payload
				records++
			}
		}

		if got := s.records + s.dupes + s.corrupt + s.truncated; got != len(split) {
			t.Fatalf("accounted %d lines (records=%d dupes=%d corrupt=%d truncated=%d), file has %d",
				got, s.records, s.dupes, s.corrupt, s.truncated, len(split))
		}
		if s.records != records || s.dupes != accepted-records || s.truncated > 1 {
			t.Fatalf("records=%d dupes=%d truncated=%d, want records=%d dupes=%d truncated<=1",
				s.records, s.dupes, s.truncated, records, accepted-records)
		}
		for kind, byKey := range s.mem {
			for key, p := range byKey {
				if w, ok := want[kind][key]; !ok || !bytes.Equal(w, p) {
					t.Fatalf("merged %q/%q = %s, no first valid line carries it", kind, key, p)
				}
			}
			if len(byKey) != len(want[kind]) {
				t.Fatalf("kind %q: merged %d records, want %d", kind, len(byKey), len(want[kind]))
			}
		}
		if len(s.mem) != len(want) {
			t.Fatalf("merged %d kinds, want %d", len(s.mem), len(want))
		}
	})
}

// FuzzParseShard checks the -shard boundary: arbitrary input never
// panics, and every accepted input is the canonical String of the shard
// it parses to, with 0 <= Index < Count.
func FuzzParseShard(f *testing.F) {
	for _, s := range []string{"0/1", "1/3", "2/3", "", "3/3", "-1/2", "01/3", "+1/3", "1/", "a/b", "9999999999999999999/1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sh, err := ParseShard(s)
		if err != nil {
			return
		}
		if sh.Index < 0 || sh.Index >= sh.Count {
			t.Fatalf("ParseShard(%q) accepted out-of-range %+v", s, sh)
		}
		if got := sh.String(); got != s {
			t.Fatalf("ParseShard(%q).String() = %q", s, got)
		}
	})
}
