#!/usr/bin/env sh
# Repo-wide hygiene gate: formatting, vet, build, tests, and the csspgo
# linter over every example module. Run via `make check`.
set -eu
cd "$(dirname "$0")/.."

# wait_url LOG BANNER: print the http://host:port a daemon announced in LOG
# as "BANNER on http://host:port ..." (both daemons print it through the
# same helper), or fail with the log once ten seconds have passed.
wait_url() {
	i=0
	while [ $i -lt 100 ]; do
		u=$(sed -n "s|^$2 on \\(http://[^ ]*\\).*\$|\\1|p" "$1" | head -n 1)
		if [ -n "$u" ]; then
			echo "$u"
			return 0
		fi
		i=$((i + 1))
		sleep 0.1
	done
	echo "no \"$2 on http://...\" in $1:" >&2
	cat "$1" >&2
	return 1
}

# probe_status URL TAG: the status surface `csspgo serve` and `csspgo fleet`
# share (obs.StatusEndpoints), probed the same way on either daemon; what
# it serves as artifacts must validate by schema.
probe_status() {
	curl -sf "$1/healthz" | grep -q '"status":"ok"'
	curl -sf "$1/metrics" | grep -q '^# TYPE '
	curl -sf "$1/timeseries" > "$obsdir/$2.ts.json"
	curl -sf "$1/events" > "$obsdir/$2.events.jsonl"
	curl -sf "$1/overhead" | grep -q '^{'
	curl -sf "$1/dashboard" | grep -qi '<html'
	bin/csspgo report -validate "$obsdir/$2.ts.json"
	# An empty journal is an empty file: nothing to tell a schema from.
	[ ! -s "$obsdir/$2.events.jsonl" ] || bin/csspgo report -validate "$obsdir/$2.events.jsonl"
}

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== exported surface (every exported identifier in internal/ has a caller outside its package that is not a test)"
out=$(go test ./internal/analysis -run 'TestExportedMeansUsed$' -count=1 -v) || { echo "$out" >&2; exit 1; }
echo "$out" | sed -n 's/^.*\(exported surface: .*\)$/\1/p'

echo "== simulator contract (golden counts, allocation gate, reference loop, step-limit pins, untimed = timed minus the clock, machines sharing one Code = machines decoding their own, then one pass of BenchmarkRun)"
go test ./internal/sim -run 'Golden|SteadyStateAllocs|Reference|StepLimit|Untimed|SharedCode' -count=1
go test ./internal/sim -run '^$' -bench Run -benchtime 1x

echo "== compile-path contract (emitted bytes and opt.Stats, Pipeline = Build → CollectProfileFor → Build, untimed collection = timed, runner stops at the first violation, references, allocation gates, lazy lookup tables, counted sizes, flat readers, context-model pins, then one pass of BenchmarkBuild)"
go test ./internal/pgo ./internal/opt ./internal/ir ./internal/inference ./internal/machine ./internal/quality ./internal/profdata ./internal/overhead \
	-run 'Golden|ByteIdentical|WorkerInvariant|PipelineMatchesBuild|CollectProfileForMatchesTimed|StopsAtFirstViolation|AllocCeiling|VerifyAllocs|ConvergedAllocs|Reference|InferProgramAllocs|HasNoIndex|FirstLookupsConcurrent|MatchesEncoders|MatchFlat|InstrSize|ContextKeyForCall|Promote|ReadsCSProfilesFlat' -count=1
go test -run '^$' -bench Build -benchtime 1x .

echo "== profile-generation contract (per-sample reference, golden profiles, allocation gates, distinct-sample counter, pending-context table, context-model and codec pins, canonical keys, size-extraction reference, profile records against a map model, then one pass of BenchmarkParallelProfileGeneration and BenchmarkPreInline)"
go test ./internal/sampling ./internal/pgo -run 'Reference|Golden|ByteIdentical|MatchesBatch|SteadyStateAllocs|Distinct|PendingTable|GenerateAllocCeiling|PreInlineAllocCeiling|ContextKeysAreCanonical' -count=1
go test ./internal/opt ./internal/profdata ./internal/overhead ./internal/preinline \
	-run 'ContextKeyForCall|Promote|ReadsCSProfilesFlat|OneFrameIsBase|GoldenProfilesRoundTrip|TruncatedTextNeverDecodesClean|CannotCarry|SameAfterTextRoundTrip|ExtractSizesMatchesReference|ProfileRecordsMatchMapModel' -count=1
go test -run '^$' -bench 'ParallelProfileGeneration|PreInline' -benchtime 1x .

echo "== serve/fleet path contract (text codec, folded export and profile diff held to their references, served and promoted bytes, dishonest fetch sources, allocation gate)"
go test ./internal/profdata ./internal/introspect ./internal/quality ./internal/fleet ./internal/pgo \
	-run 'TextCodecMatchesReference|FoldedMatchesReference|DiffProfilesMatchesReference|WeightKeysOrderAsTheirStrings|ServedBytesAreTheEncodings|PromotedBytesAreTheEncoding|DishonestSources|ServeRoundAllocCeiling' -count=1

echo "== go test -race (the Makefile's race lane)"
make race

echo "== fuzz smoke (the Makefile's fuzz lane: one 5s burst per target)"
make fuzz

echo "== csspgo lint (examples)"
go build -o bin/csspgo ./cmd/csspgo
for f in examples/*/*.ml; do
	out=$(bin/csspgo lint "$f")
	echo "$f: $(echo "$out" | tail -n 1)"
done

echo "== translation validation (checked builds over every example)"
# Every pass boundary of every example must prove semantically equivalent:
# zero violations, i.e. zero validator false positives.
for f in examples/*/*.ml; do
	out=$(bin/csspgo lint -tv "$f")
	echo "$f [tv]: $(echo "$out" | tail -n 1)"
done

echo "== miscompile-injection matrix (every injected bug must be caught + attributed)"
tvsrc=examples/quickstart/app.ml
for kind in drop-branch swap-successors effectful-probe drop-store clobber-return; do
	for pass in dce simplify-cfg licm unroll; do
		if out=$(bin/csspgo lint -tv -inject "$kind@$pass" "$tvsrc" 2>&1); then
			echo "tv missed injected $kind@$pass" >&2
			echo "$out" >&2
			exit 1
		fi
		if ! echo "$out" | grep -q "pass \"$pass\" broke"; then
			echo "tv misattributed $kind@$pass:" >&2
			echo "$out" >&2
			exit 1
		fi
		echo "$kind@$pass: detected, attributed to $pass"
	done
done

echo "== observability (trace + run report on a real workload)"
# Build an example twice with -trace/-report, validate the Chrome trace
# (>= 8 distinct pipeline spans) and the manifests against the schema,
# then smoke the diff path.
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
src=$(ls examples/*/*.ml | head -n 1)
bin/csspgo build -o "$obsdir/app.bin" -probes -trace "$obsdir/trace.json" -report "$obsdir/a.json" "$src" >/dev/null
bin/csspgo profile -bin "$obsdir/app.bin" -o "$obsdir/app.prof" -kind cs -n 50 -v >/dev/null
bin/csspgo build -o "$obsdir/app2.bin" -probes -profile "$obsdir/app.prof" -report "$obsdir/b.json" "$src" >/dev/null
bin/csspgo report -validate -min-spans 8 "$obsdir/trace.json" "$obsdir/a.json" "$obsdir/b.json"
bin/csspgo report "$obsdir/a.json" "$obsdir/b.json" >/dev/null

echo "== one profile driver (csspgo profile rejects an unknown -kind before it runs anything)"
if bin/csspgo profile -bin "$obsdir/app.bin" -o "$obsdir/bad.prof" -kind bogus >/dev/null 2>&1; then
	echo "csspgo profile accepted an unknown -kind" >&2
	exit 1
fi

echo "== report -diff regression gate (exit codes)"
# Hand-written manifests with fixed timings: a doubled stage wall time must
# exit 2 under the default 10% threshold, a self-diff must exit 0, and a
# loose threshold must forgive the regression.
cat > "$obsdir/fast.json" <<'EOF'
{"schema":"csspgo-run-report/v1","tool":"gate","stages":[{"name":"build","wall_ns":1000000,"count":1}]}
EOF
cat > "$obsdir/slow.json" <<'EOF'
{"schema":"csspgo-run-report/v1","tool":"gate","stages":[{"name":"build","wall_ns":2000000,"count":1}]}
EOF
if bin/csspgo report -diff "$obsdir/fast.json" "$obsdir/slow.json" >/dev/null 2>&1; then
	echo "report -diff missed a 2x regression" >&2
	exit 1
fi
bin/csspgo report -diff "$obsdir/fast.json" "$obsdir/fast.json" >/dev/null
bin/csspgo report -diff -threshold 150 "$obsdir/fast.json" "$obsdir/slow.json" >/dev/null

echo "== inspect -diff (profile analytics on the sourcedrift example)"
# Profiles from the pristine and CFG-changed sources must diff: self-diff
# overlaps at 1.0, cross-diff strictly below.
bin/csspgo build -o "$obsdir/pristine.bin" -probes examples/sourcedrift/pristine.ml >/dev/null
bin/csspgo profile -bin "$obsdir/pristine.bin" -o "$obsdir/old.prof" -kind cs -n 60 >/dev/null
bin/csspgo build -o "$obsdir/changed.bin" -probes examples/sourcedrift/cfgchanged.ml >/dev/null
bin/csspgo profile -bin "$obsdir/changed.bin" -o "$obsdir/new.prof" -kind cs -n 60 >/dev/null
bin/csspgo inspect -diff "$obsdir/old.prof" "$obsdir/old.prof" | grep -q "context overlap:      1.0000"
if bin/csspgo inspect -diff "$obsdir/old.prof" "$obsdir/new.prof" | grep -q "context overlap:      1.0000"; then
	echo "inspect -diff reported full overlap across a CFG change" >&2
	exit 1
fi

echo "== stale ladder (the pristine profile applied to the CFG-changed source)"
# The build must recover the stale function on the anchor-matched rung,
# and the stale-matching lint must pass (its rung reports are warnings).
bin/csspgo build -o "$obsdir/stale.bin" -probes -profile "$obsdir/old.prof" -preinline -stale-matching \
	examples/sourcedrift/cfgchanged.ml > "$obsdir/stale.log"
if ! grep -q 'degradation ladder: .*: [1-9][0-9]* anchor-matched' "$obsdir/stale.log"; then
	echo "stale build recovered no function by anchor matching:" >&2
	cat "$obsdir/stale.log" >&2
	exit 1
fi
grep 'degradation ladder:' "$obsdir/stale.log"
out=$(bin/csspgo lint -profile "$obsdir/old.prof" -stale-matching examples/sourcedrift/cfgchanged.ml)
echo "$out" | tail -n 1

echo "== overhead observatory (cost ledger determinism + budget gate)"
# Two metered runs of the quickstart binary must produce byte-identical
# normalized artifacts, the artifact must validate, and a microscopic
# budget must trip the exit-2 gate (the report -diff convention).
bin/csspgo build -o "$obsdir/oh.bin" -probes examples/quickstart/app.ml >/dev/null
bin/csspgo overhead -bin "$obsdir/oh.bin" -o "$obsdir/oh-a.json" -n 50 >/dev/null
bin/csspgo overhead -bin "$obsdir/oh.bin" -o "$obsdir/oh-b.json" -n 50 >/dev/null
cmp "$obsdir/oh-a.json" "$obsdir/oh-b.json"
bin/csspgo report -validate "$obsdir/oh-a.json"
grep -q '"schema": "csspgo-overhead/v1"' "$obsdir/oh-a.json"
rc=0
bin/csspgo overhead -bin "$obsdir/oh.bin" -n 50 -budget 0.0001 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
	echo "overhead budget gate exited $rc, want 2" >&2
	exit 1
fi

echo "== serve + fleet status smoke (both daemons on ephemeral ports, one status surface)"
# A 1 % overhead budget is below quickstart's profiling overhead (~4.3 %),
# so the first collection journals a budget breach: /events is non-empty
# and its journal is validated, not skipped.
bin/csspgo serve -addr 127.0.0.1:0 -name quickstart -overhead-budget 1 examples/quickstart/app.ml > "$obsdir/serve.log" 2>&1 &
servepid=$!
url=$(wait_url "$obsdir/serve.log" 'serving profile .*') || { kill "$servepid" 2>/dev/null; exit 1; }
probe_status "$url" serve
if [ ! -s "$obsdir/serve.events.jsonl" ]; then
	echo "serve -overhead-budget 1 journaled no budget breach" >&2
	kill "$servepid" 2>/dev/null
	exit 1
fi
curl -sf "$url/healthz" | grep -q '"last_refresh"'
curl -sf "$url/metrics" | grep -q '^serve_requests '
curl -sf "$url/metrics" | grep -q '^serve_swap_latency_ns{quantile="0.99"} '
curl -sf "$url/overhead" | grep -q '"schema": "csspgo-overhead/v1"'
curl -sf "$url/dashboard" | grep -q 'overhead observatory'
curl -sf "$url/flamegraph" > "$obsdir/flame.folded"
cmp "$obsdir/flame.folded" internal/pgo/testdata/quickstart.folded
curl -sf "$url/profiles/quickstart" > "$obsdir/served.prof"
bin/csspgo inspect -profile "$obsdir/served.prof" -folded >/dev/null
# The aggregator's status port over the same instance: continuous mode, so
# the surface stays up after the first round until it is interrupted.
bin/csspgo fleet -rounds 0 -status-addr 127.0.0.1:0 -o "$obsdir/status.prof" "$url/profiles/quickstart" > "$obsdir/status.log" 2>&1 &
statuspid=$!
surl=$(wait_url "$obsdir/status.log" 'fleet status') || { kill "$servepid" "$statuspid" 2>/dev/null; exit 1; }
probe_status "$surl" fleet
curl -sf "$surl/healthz" | grep -q '"sources":{"src0":"'
curl -sf "$surl/overhead" | grep -q '"low_sources"'
kill -INT "$statuspid"
wait "$statuspid"
kill -INT "$servepid"
wait "$servepid"

echo "== fleet smoke (aggregate 4 instances + 1 dead, promote, poison-rollback)"
# The control plane against a hostile fleet: four live `csspgo serve`
# instances with different training seeds plus one dead URL must still
# aggregate and promote (exit 0); a re-run with -inject poison-counts must
# be rejected by the gate (exit 2) leaving the last-good artifact
# byte-identical.
fleeturls=""
fleetpids=""
for s in 1 2 3 4; do
	bin/csspgo serve -addr 127.0.0.1:0 -name quickstart -seed "$s" examples/quickstart/app.ml > "$obsdir/fleet$s.log" 2>&1 &
	fleetpids="$fleetpids $!"
done
for s in 1 2 3 4; do
	u=$(wait_url "$obsdir/fleet$s.log" 'serving profile .*') || { kill $fleetpids 2>/dev/null; exit 1; }
	fleeturls="$fleeturls $u/profiles/quickstart"
done
# One-shot aggregate + first (ungated) promotion; the dead source must be
# tolerated, not fatal.
bin/csspgo fleet -o "$obsdir/fleet.prof" -report "$obsdir/fleet.json" $fleeturls http://127.0.0.1:1/profiles/dead
bin/csspgo report -validate "$obsdir/fleet.json"
# Gated re-promotion against the adopted last-good must pass.
bin/csspgo fleet -o "$obsdir/fleet.prof" $fleeturls
cp "$obsdir/fleet.prof" "$obsdir/fleet.prof.golden"
# Injected poison must be caught by the gate: exit 2, artifact untouched.
rc=0
bin/csspgo fleet -o "$obsdir/fleet.prof" -inject poison-counts $fleeturls || rc=$?
if [ "$rc" -eq 0 ]; then
	echo "fleet gate promoted a poisoned candidate" >&2
	kill $fleetpids 2>/dev/null || true
	exit 1
fi
if [ "$rc" -ne 2 ]; then
	echo "fleet poison run exited $rc, want 2 (gate rejection)" >&2
	kill $fleetpids 2>/dev/null || true
	exit 1
fi
cmp "$obsdir/fleet.prof" "$obsdir/fleet.prof.golden"
kill -INT $fleetpids
wait $fleetpids

echo "== fleet observability (traced round, stitched trace, deterministic journal + time-series)"
# Three traced instances plus a traced aggregator: the per-process Chrome
# exports must stitch into one causally-linked fleet trace (every
# serve.handle_profile span descends from the aggregator's fleet.round
# span, across the process boundary), and two identical fleet runs must
# write byte-identical normalized journals and time-series stores.
obsurls=""
obspids=""
for s in 1 2 3; do
	bin/csspgo serve -addr 127.0.0.1:0 -name quickstart -seed "$s" \
		-trace "$obsdir/obs-serve$s.trace.json" examples/quickstart/app.ml > "$obsdir/obs-serve$s.log" 2>&1 &
	obspids="$obspids $!"
done
for s in 1 2 3; do
	u=$(wait_url "$obsdir/obs-serve$s.log" 'serving profile .*') || { kill $obspids 2>/dev/null; exit 1; }
	obsurls="$obsurls $u/profiles/quickstart"
done
# Two identical one-shot runs, each promoting from scratch. Both mint the
# same seeded trace IDs, so one aggregator export resolves the instance-side
# parent links from either run.
bin/csspgo fleet -o "$obsdir/obs-a.prof" -trace "$obsdir/obs-fleet.trace.json" \
	-journal "$obsdir/obs-a.journal.jsonl" -timeseries "$obsdir/obs-a.ts.json" $obsurls
bin/csspgo fleet -o "$obsdir/obs-b.prof" \
	-journal "$obsdir/obs-b.journal.jsonl" -timeseries "$obsdir/obs-b.ts.json" $obsurls
cmp "$obsdir/obs-a.journal.jsonl" "$obsdir/obs-b.journal.jsonl"
cmp "$obsdir/obs-a.ts.json" "$obsdir/obs-b.ts.json"
bin/csspgo report -validate "$obsdir/obs-a.journal.jsonl" "$obsdir/obs-a.ts.json"
grep -q '"type":"promotion"' "$obsdir/obs-a.journal.jsonl"
grep -q '"fleet.merge.rounds"' "$obsdir/obs-a.ts.json"
# Instance traces are written on graceful shutdown; collect, then stitch.
kill -INT $obspids
wait $obspids
bin/csspgo trace -stitch "$obsdir/obs-merged.trace.json" -min-cross-links 3 \
	-require-ancestor serve.handle_profile=fleet.round \
	"$obsdir/obs-fleet.trace.json" "$obsdir/obs-serve1.trace.json" \
	"$obsdir/obs-serve2.trace.json" "$obsdir/obs-serve3.trace.json"

echo "check: OK"
