package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The artifact contract. Every schema-versioned file csspgo writes — the run
// report, the time-series store, the event journal, the overhead ledger —
// meets it from both sides. On the way out it has a Normalize method that
// zeroes what differs between two identical runs (wall times, trace
// identity) and an Encode that renders deterministically, so two identical
// runs write byte-identical files after Normalize. On the way in its schema
// id names the one decoder that validates it (RegisterSchema).
// ValidateArtifact is the single entry `csspgo report -validate` and the
// tests go through. Chrome traces are the one file without a schema id;
// ParseChromeTrace is theirs.

// Artifact is what WriteFile needs of an artifact: its deterministic
// encoding, with a trailing newline.
type Artifact interface {
	Encode() ([]byte, error)
}

// WriteFile encodes a to path.
func WriteFile(path string, a Artifact) error {
	data, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// schema is the reading side of one registered artifact: what a file of it
// is called, and its decoder reduced to a verdict.
type schema struct {
	kind  string
	check func(data []byte) error
}

var schemas = map[string]schema{}

// RegisterSchema adds one artifact schema to the contract: the id its files
// declare in their "schema" field, what such a file is called, and the
// decoder that validates one (its error is the file's verdict). The package
// that owns a schema registers it once, from init; registering an id twice
// panics.
func RegisterSchema[T any](id, kind string, decode func([]byte) (T, error)) {
	if _, dup := schemas[id]; dup {
		panic("obs: schema " + id + " registered twice")
	}
	schemas[id] = schema{kind: kind, check: func(data []byte) error {
		_, err := decode(data)
		return err
	}}
}

func init() {
	RegisterSchema(Schema, "manifest", DecodeReport)
	RegisterSchema(TimeSeriesSchema, "store", decodeTimeSeries)
	RegisterSchema(EventsSchema, "journal", DecodeJournal)
}

// ValidateArtifact reads which artifact data is off its first JSON value — a
// registered "schema" id, or "traceEvents" for a Chrome trace, which carries
// none — and runs that artifact's decoder over the whole file (a journal is
// JSON Lines, every line tagged with its schema). A Chrome trace must also
// name at least minSpans distinct spans. It returns what the file was.
func ValidateArtifact(data []byte, minSpans int) (string, error) {
	var head struct {
		Schema      string          `json:"schema"`
		TraceEvents json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&head); err != nil {
		return "", fmt.Errorf("not a JSON artifact: %w", err)
	}
	if head.Schema == "" {
		if head.TraceEvents == nil {
			return "", fmt.Errorf("no \"schema\" and no \"traceEvents\": not an artifact csspgo writes")
		}
		kind := fmt.Sprintf("Chrome trace (>= %d distinct spans)", minSpans)
		ct, err := ParseChromeTrace(data)
		if err != nil {
			return kind, err
		}
		if n := len(ct.SpanNames()); n < minSpans {
			return kind, fmt.Errorf("obs: trace: %d distinct span name(s), want >= %d", n, minSpans)
		}
		return kind, nil
	}
	s, ok := schemas[head.Schema]
	if !ok {
		return "", fmt.Errorf("unknown schema %q", head.Schema)
	}
	return head.Schema + " " + s.kind, s.check(data)
}
