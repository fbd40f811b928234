#!/usr/bin/env bash
# Offline CI gate: build, test, lint, format. No network access required —
# all third-party dependencies are vendored under vendor/ as path deps.
set -euo pipefail

cd "$(dirname "$0")/.."

# Codec gate: every binary format goes through vw_packet::codec, so the
# four files that define one convert no integers by hand (test modules may
# still forge bytes), and no length is cast into a prefix anywhere in the
# crates that write them.
echo "==> codec gate"
for f in crates/core/src/wire.rs crates/serve/src/payload.rs \
    crates/serve/src/checkpoint.rs crates/obs/src/metrics.rs; do
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f" |
        grep -E '(from|to)_(le|be)_bytes'; then
        echo "hand-rolled integer conversion outside vw_packet::codec"
        exit 1
    fi
done
if grep -rnE '\.len\(\) as u(16|32)' crates/core/src crates/obs/src crates/serve/src; then
    echo "length cast into a prefix: use Writer::len16/len32"
    exit 1
fi

# Action-family gate: vw_fsl::Action and CompiledActionKind have five
# variants (Counter, Fault, Fail, Stop, FlagError); the per-keyword names
# live in CounterOp and Fault, declared once and shared by both.
echo "==> action-family gate"
if grep -rnE '(CompiledActionKind|Action)::(Assign|Enable|Disable|Incr|Decr|Reset|SetCurTime|ElapsedTime|Drop|Delay|Reorder|Dup|Modify)\b' crates tests examples; then
    echo "flat action variant: match on the family, then on CounterOp / Fault"
    exit 1
fi

# Record-shape gate: vw_obs::ObsEvent is one struct (time, node, frame_seq,
# kind); the per-kind payloads are ObsKind variants.
echo "==> obs-record gate"
if grep -rnE 'ObsEvent::(Classified|CounterUpdated|TermFlipped|ConditionFired|ActionTriggered|PeerDegraded|ControlSent|ControlDelivered|StateChanged)\b' crates tests examples; then
    echo "flat ObsEvent variant: read the header fields, match on event.kind (ObsKind)"
    exit 1
fi

# Timer gate: a cancelled timer leaves the event queue when it is
# cancelled (vw-netsim's indexed heap, heap.rs); the world keeps no
# tombstone set to check fired timers against, and the hierarchical wheel
# the heap replaced (BTreeMap levels, a cached minimum) does not come back.
# One queue: every pending event, timers included, is a cell of that heap,
# so outside their tests the queue's files hold no second lane and no
# second (time, seq) ordering.
echo "==> timer gate"
if grep -nE 'cancelled_timers|HashSet' crates/netsim/src/world.rs; then
    echo "timer tombstones in World: cancel in the event queue (EventQueue::cancel)"
    exit 1
fi
if grep -rnE 'BTreeMap|TimerWheel|rebuild_min' crates/netsim/src; then
    echo "timer wheel in vw-netsim: handler timers live in the indexed heap (heap.rs)"
    exit 1
fi
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { print FILENAME ":" FNR ": " $0 }' \
    crates/netsim/src/event.rs crates/netsim/src/heap.rs |
    grep -E 'BinaryHeap|VecDeque|enum Lane|impl (Partial)?Ord for'; then
    echo "a second event lane in vw-netsim: every pending event is a cell of the indexed heap (heap.rs)"
    exit 1
fi

# One-router gate: a frame's path through a host is one Hop value (into a
# hook outbound, into the next hook inbound, or raw to the NIC), carried by
# one EventKind::Hop and moved by World::forward, the one place that runs a
# hop now or queues it; the per-direction chain events, their direction
# enum and the origin-to-index mapping do not come back. The packet trace
# keeps no copy of the device names: the world renders it with its own.
echo "==> one-router gate"
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { print FILENAME ":" FNR ": " $0 }' \
    crates/netsim/src/*.rs | grep -E 'OutboundChain|InboundChain|ChainDir|CtxOrigin'; then
    echo "a second way through a host's chain: route the frame as a Hop through World::forward"
    exit 1
fi
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { print FILENAME ":" FNR ": " $0 }' \
    crates/netsim/src/trace.rs | grep -E 'register_device|fn device_name|fn render|Rc<str>'; then
    echo "a device-name table in the trace: render with World::render_trace"
    exit 1
fi

# One-ARQ gate: both reliable channels, the RLL and the control plane,
# run on the one ARQ core in vw_rll::window. The engine and the control
# wire format keep no queue or reorder buffer of their own (outside their
# tests), and the engine's old private copy is not named anywhere.
echo "==> one-arq gate"
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/engine.rs crates/core/src/wire.rs |
    grep -E 'VecDeque|BTreeMap'; then
    echo "a second ARQ queue in the engine: sequence through vw_rll::window"
    exit 1
fi
if grep -rnE 'SequenceReceiver|RetxEntry' crates tests examples; then
    echo "the engine's old ARQ copy: use vw_rll::window::{SenderWindow, ReceiverWindow}"
    exit 1
fi

# Dispatch gate: a handler is called where it lives (World::host_ctx
# borrows it beside the context) and its effects go on the world's one
# effect stack; nothing takes a handler out of its slot or pools effect
# buffers. The engine's per-frame counter dispatch is a dense table.
echo "==> dispatch gate"
if grep -rnE 'take_hook|put_hook|take_protocol|put_protocol|spare_effects' crates/netsim/src; then
    echo "handler shuffled out of its slot, or pooled effect buffers: dispatch through World::host_ctx"
    exit 1
fi
if grep -rnE 'counter_dispatch: *HashMap' crates/core/src; then
    echo "hashed counter dispatch: index the dense table by dispatch_slot(filter, dir)"
    exit 1
fi

# Frame-assembly gate: a frame is assembled once, in its final arena
# buffer (vw_packet::Frame::assemble); no builder stages a payload in a
# buffer of its own or hands one to the next layer.
echo "==> frame-assembly gate"
if grep -rnE 'payload_owned|build_take|build_packet_take' crates tests examples; then
    echo "staging builder API: borrow the payload, build through Frame::assemble"
    exit 1
fi

# Results gate: a run's numbers live once, typed, in virtualwire::Report.
# The metrics registry is rendered from it on demand (Report::metrics) and
# the campaign digest folds its typed fields; nothing stores a registry in
# the report or parses metric names back apart.
echo "==> results gate"
if grep -rnE 'from_registry|DIGEST_COUNTER_LEAVES' crates; then
    echo "digest folded from metric names: fold Report::total_stats and Report.distributions"
    exit 1
fi
if grep -n 'MetricsRegistry' crates/core/src/runner.rs; then
    echo "registry built while assembling the report: render it in Report::metrics"
    exit 1
fi
if grep -n 'pub metrics:' crates/core/src/report.rs; then
    echo "registry stored in Report: it is a view, Report::metrics()"
    exit 1
fi

# Campaign gate: a campaign compiles each program point once, in the
# point's own initialiser (vw_campaign::spec), and that table allocation is
# the one the runner, the control engine and every Init hold: TableSet is a
# shared handle, so nothing boxes it or deep-copies it on the way.
echo "==> campaign gate"
if grep -rn 'Box<TableSet>' crates/core/src; then
    echo "boxed tables: ControlMsg::Init carries the TableSet handle itself"
    exit 1
fi
if grep -n 'tables\.clone()' crates/core/src/runner.rs crates/core/src/engine.rs; then
    echo "tables copied between runner and engine: share the handle (TableSet::clone(&tables))"
    exit 1
fi
if grep -n 'vw_fsl::compile(' crates/campaign/src/exec.rs; then
    echo "per-instance compile: run on Instance::tables(), compiled once per program point"
    exit 1
fi

# Install gate: an engine installs what its thread already built for the
# same tables. Outside test modules, the table decoder runs only in the
# `Init` memo (wire::decode_init_tables), and the classifier and the
# counter dispatch are built only by the thread's plan cache
# (InstallPlan::cached in plan.rs). The core reads no environment:
# there is no switch for any of it. Its two suites run below, after the
# build.
echo "==> install gate"
if ! awk '
    FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    test || /^[ \t]*\/\// { next }
    /^ *(pub(\(crate\))? )?fn [a-z_]+/ {
        match($0, /fn [a-z_]+/); fn = substr($0, RSTART + 3, RLENGTH - 3)
    }
    /decode_tables\(/ && !/fn decode_tables\(/ && fn != "decode_init_tables" {
        print FILENAME ":" FNR ": " $0; bad = 1
    }
    /Classifier::build\(|build_counter_dispatch\(/ &&
        !/fn build_counter_dispatch\(/ &&
        !(FILENAME ~ /\/plan\.rs$/ && fn == "cached") {
        print FILENAME ":" FNR ": " $0; bad = 1
    }
    END { exit bad }
' crates/core/src/*.rs; then
    echo "tables decoded or install state built outside the Init memo / InstallPlan::cached"
    exit 1
fi
if grep -rn 'env::var' crates/core/src; then
    echo "the core reads the environment: no switches, one build"
    exit 1
fi

# Engine-lifecycle gate: an engine's lifecycle is one typed value
# (engine::Phase), and what it fixed at install (tables, plan, identity) is
# read in place through a borrow, never moved out of the engine and put
# back, and never reached through an `expect` on an unset field. The node
# table is read from the tables; the install plan keeps no copy of it.
echo "==> engine-lifecycle gate"
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/engine.rs |
    grep -E 'tables\.take\(\)|expect\("initialized'; then
    echo "engine state moved out or expected: read the installed tables through &Installed"
    exit 1
fi
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/plan.rs |
    grep -E 'nodes:|node_identities|MacAddr'; then
    echo "a second node table in the install plan: read names and MACs from tables.nodes"
    exit 1
fi

# Sans-IO engine gate: the engine reaches the simulator through one seam.
# Outside its test module and the adapter (`impl EngineIo for Context`,
# `impl Hook for Engine`), engine.rs names no `Context` but in its imports
# and comments: the packet path, cascade and control plane take any
# `EngineIo`, so a test drives them with no World.
echo "==> sans-io engine gate"
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
        /^impl (EngineIo for Context|Hook for Engine)/ { adapter = 1 }
        !test && !adapter && !/^ *(\/\/|use )/ { print FILENAME ":" FNR ": " $0 }
        adapter && /^}/ { adapter = 0 }' crates/core/src/engine.rs |
    grep -wE 'Context'; then
    echo "the engine names Context outside its adapter: take io: &mut impl EngineIo"
    exit 1
fi

# Sans-IO gate: the daemon's decisions have one owner. Outside its test
# module, scheduler.rs names no lock, thread, file, clock or checkpoint call —
# the owner thread in server.rs carries out what it decides, and only
# checkpoint.rs syncs. Its suites run below, after the build.
echo "==> sans-io gate"
if grep -rn 'sync_data' crates/serve/src | grep -v '^crates/serve/src/checkpoint.rs:'; then
    echo "sync_data outside checkpoint.rs: go through CheckpointWriter"
    exit 1
fi
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
    crates/serve/src/scheduler.rs |
    grep -E 'Mutex|Condvar|lock\(\)|std::thread|std::fs|Instant::now|CheckpointWriter|\.(open|reopen|append_header|append_shard|write_shard|write_complete|sync)\('; then
    echo "a lock, a thread, the disk or the clock in the scheduler: post an input, return an effect"
    exit 1
fi
# `|| true`: no match is the goal, and grep exits 1 on it under pipefail.
serve_locks=$( (grep -rn 'lock()' crates/serve/src || true) | wc -l)
serve_condvars=$( (grep -rn 'Condvar' crates/serve/src || true) | wc -l)
if [ "$serve_condvars" -ne 0 ] || [ "$serve_locks" -gt 7 ]; then
    echo "crates/serve/src: $serve_locks lock(), $serve_condvars Condvar (at most 7, none)"
    exit 1
fi

# Shard-plan gate: ShardPlan alone maps an instance position to its shard
# (shard 0 holds one instance, the rest shard_size each), so the daemon asks
# ShardPlan::locate and ShardPlan::range; it neither reads a shard size
# back from the plan nor divides a position by one.
echo "==> shard-plan gate"
if grep -rnE 'shard_size\(\)|[/%] *[A-Za-z_.]*shard_size' crates/serve/src; then
    echo "shard arithmetic outside ShardPlan: ask ShardPlan::locate or ShardPlan::range"
    exit 1
fi

# Campaign gate, the executor: a campaign is watched through the daemon's
# telemetry and aggregated straight from its CampaignResult; there is no
# second live view and no second per-instance record.
echo "==> campaign-view gate"
if grep -rnE 'ProgressSink|run_campaign_with_progress|InstanceMetrics' crates tests examples; then
    echo "second campaign view: watch through vw-serve top, aggregate with CampaignReport::of"
    exit 1
fi

# Refusal gate: a host's address filter is one predicate, Host::accepts in
# vw-netsim's device.rs. World::cross_link asks it once a frame's draws
# have run and records a refused copy without scheduling its arrival;
# handle_arrival asks it only of frames injected on the wire.
echo "==> refusal gate"
accepts_defs=$(grep -rn 'fn accepts\b' crates/netsim/src || true)
echo "$accepts_defs"
if [ "$(printf '%s\n' "$accepts_defs" | grep -c .)" -ne 1 ] ||
    ! printf '%s\n' "$accepts_defs" | grep -q '^crates/netsim/src/device.rs:'; then
    echo "the address filter is defined once, as Host::accepts in crates/netsim/src/device.rs"
    exit 1
fi
if grep -nE '(\bdst|dst\(\)|\.mac) *==|== *[a-z_.]*\.mac\b' crates/netsim/src/world.rs; then
    echo "a MAC-equality accept test in World: ask Host::accepts"
    exit 1
fi

# One-judge gate: a finished run is judged in one crate, vw-analysis (its
# invariants, conformance models and, as vw_analysis::script, the
# packetdrill-style scripts). The invariants are four rules run by
# check_invariants, not an extension point. The workspace keeps at most 13
# crates.
echo "==> one-judge gate"
if grep -rnE 'vw_script|vw-script|dyn Invariant|InvariantChecker|TimelineEntry|local_order' \
    crates tests examples; then
    echo "a second judge or an unused checker extension point: use vw_analysis"
    exit 1
fi
# One order: a run's events have one order, Report::events (time, then
# each engine's recording order); nothing re-sorts or re-merges them.
if grep -rnE 'DistributedTimeline|canonical_key|merge_by_time' crates tests examples; then
    echo "a second order of a run's events: read Report::events"
    exit 1
fi
crate_count=$(find crates -mindepth 1 -maxdepth 1 -type d | wc -l)
echo "$crate_count crates under crates/ (at most 13)"
if [ "$crate_count" -gt 13 ]; then
    echo "more than 13 crates: fold the new one into an existing crate"
    exit 1
fi

# Serde gate: vendor/serde_derive expands its derives to nothing and no
# code bounds on the marker traits, so no source type carries one.
echo "==> serde gate"
if grep -rnE 'Serialize, Deserialize' crates/*/src; then
    echo "inert serde derive: nothing serializes through serde"
    exit 1
fi

# Front-end gate: a token borrows its text from the script (an identifier
# or string token is a slice of the source, so a token is a Copy value the
# parser reads by copy), and a name is allocated at most once, where it
# enters an owned AST (`compile_source` borrows it until the tables). The
# lexer hands the parser one token at a time: outside their tests, the
# front end's files hold no token list.
echo "==> front-end gate"
if grep -n 'String' crates/fsl/src/token.rs; then
    echo "a token owns its text: make it a slice of the source"
    exit 1
fi
if grep -n 'clone()' crates/fsl/src/parser.rs; then
    echo "the parser clones a token: tokens are Copy, read them by value"
    exit 1
fi
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { print FILENAME ":" FNR ": " $0 }' \
    crates/fsl/src/*.rs | grep -E 'Vec<Token'; then
    echo "a token list in the front end: pull tokens from the lexer one at a time (Lexer::advance)"
    exit 1
fi

# Each-fact-once gate: a fact about a run has one typed owner (an engine's
# FlaggedError, EngineStats or ObsEvent; RllStats; a protocol's state log;
# the compiled tables), so no handler copies one into the packet trace as
# text, no wrapper stores the recorder level a second time, no field keeps
# a STOP reason the world already keeps, and the report copies neither the
# script's names (Report::symbols is the run's tables) nor a state log
# (conformance_pass reads each protocol's own). The executor digests the
# report it owns by moving its lists out, and the metrics digest borrows
# its fixed names.
echo "==> each-fact-once gate"
if grep -rnE 'trace_note|trace_frame|Effect::Trace|EventLog|enum Direction|fn stopped\(|SymbolTable|attach_state_events|tcp_state_events|rether_state_events|check_conformance' crates tests examples; then
    echo "a second record of a typed fact: read the typed owner instead"
    exit 1
fi
if grep -n 'pub scenario' crates/core/src/report.rs; then
    echo "scenario name copied into Report: read Report::symbols.scenario"
    exit 1
fi
if grep -n 'OutcomeDigest::from_report(&report)' crates/campaign/src/exec.rs; then
    echo "the executor copies a report it owns: use OutcomeDigest::from_owned_report"
    exit 1
fi
if grep -n 'name.to_string(), value)' crates/campaign/src/outcome.rs; then
    echo "a fixed metric name copied into a String: borrow it"
    exit 1
fi

# One-home gate: a fact has one home and every reader asks it. A recorded
# action holds its table id and its kind is the action table's
# (vw_obs::action_label spells it); a program axis's spots are found by one
# walker, Axis::spots, whether it writes them or the shrinker reads them;
# a port is busy while it holds a frame in flight, and a hub is a switch
# with no learning table. A TCP connection is one slot of TcpStack::conns,
# walked in socket order, its logged values diffed against cc_values; an
# event's frame_seq is the engine's classified count.
echo "==> one-home gate"
if grep -rnE 'ObsActionKind|obs_action_kind|find_threshold|current_delay_ns|Device::Hub|\.busy\b' crates/*/src; then
    echo "a second copy of a fact: read the action table, Axis::spots or Port::in_flight"
    exit 1
fi
if grep -rnE 'CcSnapshot|HashMap<usize' crates/tcpstack/src ||
    grep -rn 'self\.frame_seq' crates/core/src/engine.rs; then
    echo "a second copy of a fact: keep a connection in one Conn, stamp stats.classified"
    exit 1
fi

# The size simplicity PRs quote, and its ratchet: lines of every
# crates/*/src/**/*.rs up to its first #[cfg(test)]. A change that needs
# more raises the ceiling in its own diff.
NON_TEST_LINES_CEILING=26815
echo "==> non-test source lines"
non_test_lines=$(find crates/*/src -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ }
        END { print n }')
echo "$non_test_lines non-test lines under crates/*/src (ceiling $NON_TEST_LINES_CEILING)"
if [ "$non_test_lines" -gt "$NON_TEST_LINES_CEILING" ]; then
    echo "non-test lines over the ceiling: delete some, or raise NON_TEST_LINES_CEILING"
    exit 1
fi
find crates/serve/src -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ }
        END { print n " under crates/serve/src, with '"$serve_locks"' lock() and '"$serve_condvars"' Condvar" }'

echo "==> cargo build --release"
cargo build --release

# Every suite runs here, once. The ones that gate a contract:
# - control-plane fault matrix (control_plane_reliability): every
#   distributed scenario converges to the fault-free report under
#   {drop,dup,reorder,delay} x {0..30%} on the 0x88B5 control frames, with
#   staleness flagged loudly, never silently;
# - analysis (vw-analysis, analysis_suite): the run's timeline ordered by
#   time with every delivery after its send, invariant checking (zero
#   violations on clean runs, seeded orphan detected), campaign analytics
#   determinism + regression diff;
# - campaign (campaign_smoke, determinism): a small sweep dedups into
#   several outcome classes, the shrinker halves a failing instance's rule
#   count, and the JSONL is byte-identical across thread counts;
# - script + conformance (vw-analysis's script_prop, script_run and
#   conformance_determinism, conformance_models): parser and runtime suites
#   with their round-trip and robustness properties, the reference-model
#   scenarios on the paper's §6.1/§6.2 testbeds, thread-count determinism
#   of conformance-keyed digests;
# - trace (vw-trace): span collection, export and self-time partitioning;
# - serve (vw-serve, daemon_smoke, kill_resume, telemetry): the protocol
#   robustness corpus, typed service errors, quota + backpressure, and the
#   real binary on a unix socket — SIGKILL mid-sweep, restart on the same
#   state dir, re-streamed JSONL byte-identical to a direct run_campaign at
#   1/2/8 workers; streaming subscriptions during multi-campaign runs,
#   slow-subscriber drops, one WorkerStalled per shard past the stall
#   threshold, and the determinism pins with a subscriber attached; racing
#   submissions (one name, the last active slot), every streamed line
#   already in the log, 64 shards from 8 workers each logged once, a stop
#   at the last line that leaves nothing to re-run, appends that fail.
echo "==> cargo test"
cargo test -q --workspace --no-fail-fast

# Allocation budgets, in the build they are about: the full tower at most
# one allocation per two classified frames once warm, the bare simulator
# (flood plus a set-and-cancel timer per tick) none in 10 000 events, none
# either when half the control frames crossing it are dropped, none in
# 10 000 calls through a three-hook chain whose effects nest dispatches,
# none in 30 000 updates of metrics-registry series that exist; and the
# campaign and install gates' numbers: a 48-instance sweep at most 110
# allocations per instance and exactly 6 compiles, at most 6 to render one
# of its streaming JSONL lines, and at most 25 to settle the same tables
# a second time on one thread. Beside them the front end's ruler
# (front_end_budget): the evaluation sweep's script, 179 allocations to
# parse and 113 (at most 156) to compile, and Fig 5's, 117 and 109. With
# them, the install gate's other suite:
# the codec's goldens, the A/B/A/A decode order among them.
echo "==> alloc budget, front end, install gate: alloc_budget, front_end_budget, wire_robustness"
cargo test -q --release --test alloc_budget
cargo test -q --release --test front_end_budget
cargo test -q --release -p virtualwire --test wire_robustness

# Sans-IO gate, the runs: the golden text of one campaign seen from outside
# (frames, log records, journal) and of one session seen from the daemon
# (counters, journal file), and the telemetry suite ten times over — its
# live-subscription case used to assert a sampled gauge and failed about one
# run in thirteen; it asserts a cumulative count now.
echo "==> sans-io gate: stream_golden, daemon_golden, telemetry x10"
cargo test -q --release -p vw-serve --test stream_golden
cargo test -q --release -p vw-serve --test daemon_golden
for _ in $(seq 1 10); do
    cargo test -q --release -p vw-serve --test telemetry
done

echo "==> example smoke: obs_flight_recorder"
cargo run -q --release --example obs_flight_recorder > /dev/null

echo "==> example smoke: trace_dump (pcap export round-trip)"
cargo run -q --release --example trace_dump > /dev/null

echo "==> example smoke: fault_analysis"
cargo run -q --release --example fault_analysis > /dev/null

# The full 216-instance sweep end to end.
echo "==> example smoke: campaign_sweep"
cargo run -q --release --example campaign_sweep > /dev/null

# Inline gate: the event queue's per-event functions are inlined into the
# run loop and its callers (heap.rs, #[inline(always)]), so an event's key
# and payload are stored straight into their slots. An out-of-line copy of
# one passes them through the stack again: a store-forwarding stall on
# every event.
echo "==> inline gate: no out-of-line IndexedHeap queue function"
if nm -C target/release/examples/campaign_sweep |
    grep -E 'IndexedHeap<.*>::(push|push_with|arm|arm_with|remove|pop|pop_at|sift_up|sift_down)$'; then
    echo "a queue function is out of line: mark it #[inline(always)] in heap.rs"
    exit 1
fi

# Scripted stimulus + conformance sweep end to end.
echo "==> example smoke: scripted_conformance"
cargo run -q --release --example scripted_conformance > /dev/null

# The span profiler collects a real run and exports Chrome trace JSON that
# round-trips the vendored parser (the example self-checks both, plus the
# 5% self-time coverage bound).
echo "==> example smoke: profile_run"
cargo run -q --release --example profile_run > /dev/null

# 9 concurrent clients with a stalled reader and an over-quota rejection.
echo "==> example smoke: load_test"
cargo run -q --release --example load_test > /dev/null

# Telemetry smoke: the watch_daemon example self-validates a full
# subscribe -> progress -> journal round trip; then `vw-serve top` runs as
# a real client against the real binary on a unix socket.
echo "==> telemetry-smoke"
cargo run -q --release --example watch_daemon > /dev/null
# The root package's build covers vw-serve's library only, not its binary.
cargo build -q --release -p vw-serve
VW_TELE_SOCK="target/vw-ci-telemetry.sock"
rm -f "$VW_TELE_SOCK"
./target/release/vw-serve --unix "$VW_TELE_SOCK" \
    --state-dir target/vw-ci-telemetry-state > /dev/null &
VW_TELE_PID=$!
for _ in $(seq 1 100); do
    [ -S "$VW_TELE_SOCK" ] && break
    sleep 0.1
done
[ -S "$VW_TELE_SOCK" ] || { echo "vw-serve never bound its socket"; exit 1; }
./target/release/vw-serve top --unix "$VW_TELE_SOCK" --ticks 2 --interval 100 > /dev/null
kill "$VW_TELE_PID" 2>/dev/null || true
wait "$VW_TELE_PID" 2>/dev/null || true
rm -rf "$VW_TELE_SOCK" target/vw-ci-telemetry-state

# Bench smoke: vwbench (BENCHMARK.json) is the one performance harness.
# Its own suite pins the seed-1 digests, the paper's Fig 7 / Fig 8 points
# and the span bookkeeping; then every workload runs once in quick mode
# and must pass its output checks (fault_storm's include frame
# conservation) with no failed operation. The result is the last line of
# standard output. `--locked`: vwbench/Cargo.lock records every crate
# edge vwbench builds, so a change that moves one fails here.
echo "==> bench-smoke"
cargo test --release -q --locked --manifest-path vwbench/Cargo.toml
for workload in tower_tcp_lossy udp_min_forward paper_overhead fault_storm \
    campaign_sweep serve_stream; do
    result=$(cargo run --release --quiet --locked --manifest-path vwbench/Cargo.toml -- \
        --workload "$workload" --quick --seed 1 --trace 0 | tail -n 1)
    if ! grep -q '"correct":true' <<<"$result" || ! grep -q '"failed":0' <<<"$result"; then
        echo "vwbench $workload: $result"
        exit 1
    fi
done

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI OK"
