#!/usr/bin/env bash
# CLI byte-identity checks over the release binaries, at 1 and 4 study
# shards: process and remote shard placement (clean and with a SIGKILLed
# worker or daemon) reproduce thread mode's report, trace and stdout;
# a clean multi-shard study opens one link per shard and sends fewer
# heartbeats than tasks; every served
# study matches its solo run; an interrupted resume reproduces the
# uninterrupted report; the exported Chrome trace has the expected
# structure; a rate shift is answered from a pre-computed frontier.
#
# Usage: cargo build --release && .github/cli_matrix.sh [OUT_DIR]
# OUT_DIR (default: a new temporary directory) keeps every artefact,
# including the traced study at OUT_DIR/study.trace.json, and the
# binaries' stderr in OUT_DIR/stderr.log.
set -Eeuo pipefail

bin="$(cd "$(dirname "$0")/.." && pwd)/target/release"
out="${1:-$(mktemp -d)}"
mkdir -p "$out"
cd "$out"
: >stderr.log
trap 'jobs -p | xargs -r kill 2>/dev/null || true' EXIT
trap 'echo "FAILED at line $LINENO (stderr in $out/stderr.log)" >&2' ERR

edgetune() { "$bin/edgetune" "$@" 2>>stderr.log; }
ok() { echo "ok: $*"; }

# A study at `$shards` shards writing NAME.{report.json,trace.json,stdout}.
study() {
    local name=$1
    shift
    edgetune --workload ic --trials 4 --max-iter 4 --seed 1234 --study-shards "$shards" \
        --json "$name.report.json" --trace "$name.trace.json" "$@" >"$name.stdout"
}
same_as_thread() {
    for file in report.json trace.json stdout; do cmp "s$shards.thread.$file" "$1.$file"; done
}
# A `spawn` span marks a link opening: one per shard, none at 1 shard.
one_link_per_shard() {
    python3 -c 'import json, sys
spawns = sum(e["name"] == "spawn" for e in json.load(open(sys.argv[1]))["traceEvents"])
want = int(sys.argv[2]) if int(sys.argv[2]) > 1 else 0
assert spawns == want, f"{spawns} spawn events, want {want}"' "$1" "$shards"
}
# A worker heartbeats once per 100 ms of measuring, so a clean study's
# fast rungs answer with their result frame alone: fewer `heartbeat`
# instants than task `send` spans (both absent at 1 shard).
fewer_heartbeats_than_sends() {
    python3 -c 'import json, sys
names = [e["name"] for e in json.load(open(sys.argv[1]))["traceEvents"]]
beats, sends = names.count("heartbeat"), names.count("send")
fewer = beats < sends if int(sys.argv[2]) > 1 else beats == sends == 0
assert fewer, f"{beats} heartbeats over {sends} sends"' "$1" "$shards"
}
solo() { edgetune --study-shards "$shards" --trials 4 --max-iter 4 "$@" >/dev/null; }
# Starts a shard-host daemon in the background and sets `addr`.
start_host() {
    "$bin/edgetune" shard-host --listen 127.0.0.1:0 >"$1" 2>>stderr.log &
    for _ in $(seq 50); do [ -s "$1" ] && break; sleep 0.1; done
    addr=$(sed -n 's/^shard-host listening on //p' "$1")
    test -n "$addr"
}

cat >studies.json <<'EOF'
{
  "tenants": [{"name": "alpha", "weight": 2}, {"name": "beta"}],
  "studies": [
    {"tenant": "alpha", "name": "ic-a", "workload": "ic", "seed": 41,
     "trials": 4, "max_iter": 4, "rung_quantum": 2, "trace": true},
    {"tenant": "alpha", "name": "sr-a", "workload": "sr", "seed": 43,
     "trials": 4, "max_iter": 4, "rung_quantum": 2},
    {"tenant": "beta", "name": "ic-b", "workload": "ic", "seed": 7,
     "metric": "energy", "trials": 4, "max_iter": 4, "rung_quantum": 2}
  ]
}
EOF
"$bin/edgetune-service" serve-studies --file studies.json --work-dir served \
    --json service.report.json >/dev/null 2>>stderr.log

for shards in 1 4; do
    study "s$shards.thread" --shard-exec thread

    study "s$shards.process" --shard-exec process --fabric-trace "s$shards.process.fabric.json"
    same_as_thread "s$shards.process"
    one_link_per_shard "s$shards.process.fabric.json"
    fewer_heartbeats_than_sends "s$shards.process.fabric.json"
    EDGETUNE_FABRIC_KILL=0 study "s$shards.process-kill" --shard-exec process
    same_as_thread "s$shards.process-kill"
    ok "$shards shard(s): process placement, clean and SIGKILLed, matches thread mode"

    start_host "s$shards.host"
    study "s$shards.remote" --shard-exec remote --shard-hosts "$addr" \
        --fabric-trace "s$shards.remote.fabric.json"
    same_as_thread "s$shards.remote"
    one_link_per_shard "s$shards.remote.fabric.json"
    fewer_heartbeats_than_sends "s$shards.remote.fabric.json"
    # Kill chaos takes the daemon itself down, so it gets its own.
    start_host "s$shards.kill-host"
    EDGETUNE_FABRIC_KILL=0 study "s$shards.remote-kill" --shard-exec remote --shard-hosts "$addr"
    same_as_thread "s$shards.remote-kill"
    ok "$shards shard(s): remote placement, clean and SIGKILLed daemon, matches thread mode"

    solo --workload ic --seed 41 --json "s$shards.ic-a.json" --trace "s$shards.ic-a.trace.json"
    solo --workload sr --seed 43 --json "s$shards.sr-a.json"
    solo --workload ic --metric energy --seed 7 --json "s$shards.ic-b.json"
    cmp served/alpha.ic-a.report.json "s$shards.ic-a.json"
    cmp served/alpha.ic-a.trace.json "s$shards.ic-a.trace.json"
    cmp served/alpha.sr-a.report.json "s$shards.sr-a.json"
    cmp served/beta.ic-b.report.json "s$shards.ic-b.json"
    ok "$shards shard(s): three interleaved served studies match their solo runs"
done

# Resume restores, it does not re-enact: a resume that stops inside the
# checkpointed prefix leaves the checkpoint untouched, and the next
# resume still reproduces the uninterrupted bytes.
chaos() { edgetune --workload ic --max-iter 8 --fault-rate 0.2 --seed 7 "$@" >/dev/null; }
chaos --json full.json
chaos --checkpoint ck.json --halt-after-rungs 5
cp ck.json ck5.json
chaos --checkpoint ck.json --resume --halt-after-rungs 2
cmp ck5.json ck.json
chaos --checkpoint ck.json --resume --json resumed.json --trace resumed.trace.json
cmp full.json resumed.json
grep -q '"restored"' resumed.trace.json
ok "an interrupted chaos resume reproduces the uninterrupted report"

cp s1.thread.trace.json study.trace.json
python3 - study.trace.json <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "empty traceEvents"
bad = {e["ph"] for e in events} - {"M", "X", "i", "C"}
assert not bad, f"unknown phases: {bad}"
for cat in ["model", "inference"]:
    assert any(e["ph"] == "X" and e.get("cat") == cat for e in events), f"no {cat} spans"
assert trace["otherData"]["format"] == "edgetune-trace"
EOF
ok "the exported study trace is well formed"

serve() { edgetune serve --workload ic --traffic shift --rate 5 --slo 4 --seed 42 "$@" >/dev/null; }
serve --frontier 6 --json frontier.serving.json
grep -q '"source": "Frontier"' frontier.serving.json
serve --json retune.serving.json
if grep -q 'Frontier' retune.serving.json; then false; fi
"$bin/repro" frontier >frontier.txt 2>>stderr.log
grep -q 'frontier' frontier.txt
ok "a rate shift is answered from the frontier; without one it pays a re-tune"
