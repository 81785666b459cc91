package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csspgo/internal/obs"
	"csspgo/internal/overhead"
)

// Every artifact csspgo writes meets both sides of the contract: once
// normalized, the file WriteFile puts on disk is its Encode output, a
// second Normalize changes no byte of it, and ValidateArtifact accepts it
// under the schema the writer stamped.
func TestArtifactContract(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter(obs.MFleetRounds).Add(2)
	reg.Histogram(obs.MFleetRoundNS).Observe(12345)
	rep := obs.NewReport("contract")
	rep.AddMetrics(reg)
	series := obs.NewTimeSeries(4)
	series.Sample(1, reg.Snapshot())
	journal := obs.NewJournal()
	journal.Emit(obs.Event{Type: obs.EvPromotion, Round: 1, TraceID: obs.DeriveTraceID("contract"), SpanID: "00000000000000ab"})
	ledger := &overhead.Report{Schema: overhead.Schema, CollectWallNS: 7}

	dir := t.TempDir()
	for _, c := range []struct {
		schema string
		a      interface {
			obs.Artifact
			Normalize()
		}
	}{
		{obs.Schema, rep},
		{obs.TimeSeriesSchema, series},
		{obs.EventsSchema, journal},
		{overhead.Schema, ledger},
	} {
		c.a.Normalize()
		path := filepath.Join(dir, "artifact")
		if err := obs.WriteFile(path, c.a); err != nil {
			t.Fatalf("%s: write: %v", c.schema, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c.a.Normalize()
		if again, err := c.a.Encode(); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: Encode after a second Normalize differs from the written file (%v)", c.schema, err)
		}
		kind, err := obs.ValidateArtifact(data, 1)
		if err != nil || !strings.HasPrefix(kind, c.schema+" ") {
			t.Fatalf("%s: ValidateArtifact = (%q, %v)\n%s", c.schema, kind, err, data)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a second registration of a schema id did not panic")
		}
	}()
	obs.RegisterSchema(obs.Schema, "manifest", obs.DecodeReport)
}
