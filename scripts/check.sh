#!/bin/sh
# check.sh — the repo's pre-merge gate: formatting, static analysis, build,
# the full test suite (plain and -race), vet + tests of the perfbench/
# module, one iteration of every Go benchmark, the model-store identity
# sweep and the serving smoke. Run from the repository root (or via
# `make check`).
#
# `check.sh chaos` instead runs only the fault-injection chaos suite (the
# full-pipeline fault-plan sweep plus the error-path contract and par
# masking tests) under the race detector.
#
# `check.sh opt` instead runs only the optimizer gate under the race
# detector: the compile/opt unit + differential suites, 10 s of the
# FuzzOptimizeObject fuzz target (a crasher fails the gate and is written
# under internal/compile/opt/testdata/fuzz), a clean
# `irlint -corpus -opt 2` (optimized corpus must verify and lint clean),
# the expectation that -opt 1 deletes the seeded dead stores in
# examples/lintdemo/dirty.c, and byte-identical studysim output at -O0.
#
# `check.sh debug-smoke` drives the live /debug HTTP surface end to end: a
# race-instrumented studysim run is stretched with a delay-only fault plan
# (delays never change output bytes), every /debug endpoint is scraped
# mid-run and must answer 200 with a parseable payload, and the run's
# stdout must hash identical to a clean run's.
#
# `check.sh serve` instead runs only the serving gate: the serve package's
# admission/e2e suites and the modelstore storm test under -race,
# then a live smoke — served is started on an ephemeral port, /healthz is
# polled, a short loadgen run over the full endpoint mix must finish with
# zero errors, a depth-260 nest must decompile and a body of 10^6 nested
# `!` must be a 400 counted as csrc.parse.limit_rejects, /debug/metrics
# must expose the serve.request series, a
# /v1/study response must hash byte-identical to the studysim CLI at seed
# 26, /v1/decompile on examples/lintdemo/dirty.c at -opt 2 with annotate
# must hash identical to `decompile -opt 2 -annotate`, and SIGTERM must
# drain cleanly. The smoke (without the -race test
# pass, which the default gate already runs) also runs as part of the
# default gate.
#
# `check.sh store` instead runs only the model-store gate: the store's
# single-flight/fault tests plus the streaming determinism matrix and the
# shared-model telemetry test under the race detector, then a studysim
# identity sweep proving -no-model-cache and jobs 1 vs 8 hash identical
# to the flagless run. The sweep also runs as part of the default gate.
set -eu

cd "$(dirname "$0")/.."

# store_identity_sweep builds studysim once and proves the model store and
# the worker count never change output bytes: every flag combination must
# hash identical to the flagless seed-26 run.
store_identity_sweep() {
	sweep_tmp="$(mktemp -d)"
	go build -o "$sweep_tmp/studysim" ./cmd/studysim

	base="$("$sweep_tmp/studysim" -seed 26 2>/dev/null | sha256sum | cut -d' ' -f1)"
	echo "   baseline                         $base"
	for args in '-jobs 8' '-no-model-cache'; do
		# shellcheck disable=SC2086 # args is a deliberate word list
		got="$("$sweep_tmp/studysim" -seed 26 $args 2>/dev/null | sha256sum | cut -d' ' -f1)"
		if [ "$got" != "$base" ]; then
			echo "store: output diverged with '$args':"
			echo "  flagless: $base"
			echo "  $args: $got"
			rm -rf "$sweep_tmp"
			exit 1
		fi
		echo "   ok   $args"
	done
	rm -rf "$sweep_tmp"
}

# serve_smoke builds served and loadgen, boots the server on an ephemeral
# port, and proves the serving path end to end: a zero-error loadgen run
# over the full endpoint mix, a deep nest that decompiles and an
# over-nested body that is a counted 400, the serve.request series on
# /debug/metrics,
# /v1/study bytes identical to the studysim CLI at seed 26, an annotated
# -O2 /v1/decompile of examples/lintdemo/dirty.c identical to the
# decompile CLI's stdout, and a clean SIGTERM drain.
serve_smoke() {
	smoke_tmp="$(mktemp -d)"
	go build -o "$smoke_tmp/served" ./cmd/served
	go build -o "$smoke_tmp/loadgen" ./cmd/loadgen
	go build -o "$smoke_tmp/studysim" ./cmd/studysim
	go build -o "$smoke_tmp/decompile" ./cmd/decompile

	"$smoke_tmp/served" -addr 127.0.0.1:0 -addr-file "$smoke_tmp/addr" \
		>"$smoke_tmp/served.out" 2>"$smoke_tmp/served.err" &
	spid=$!
	addr=""
	for _ in $(seq 1 600); do
		if [ -s "$smoke_tmp/addr" ]; then
			addr="$(cat "$smoke_tmp/addr")"
			break
		fi
		if ! kill -0 "$spid" 2>/dev/null; then
			echo "serve: served exited before binding:"
			cat "$smoke_tmp/served.err"
			rm -rf "$smoke_tmp"
			exit 1
		fi
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "serve: served never wrote its bound address"
		kill "$spid" 2>/dev/null || true
		rm -rf "$smoke_tmp"
		exit 1
	fi
	echo "   served at $addr"

	code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/healthz")"
	if [ "$code" != "200" ]; then
		echo "serve: /healthz -> HTTP $code, want 200"
		kill "$spid" 2>/dev/null || true
		rm -rf "$smoke_tmp"
		exit 1
	fi

	# The smoke covers every pipeline endpoint; loadgen exits non-zero if
	# any request errors, times out, or returns a truncated body.
	if ! "$smoke_tmp/loadgen" -addr "$addr" -duration 2s -conns 4 \
		-mix 'annotate=4,metrics=2,decompile=2,lint=1' \
		-out "$smoke_tmp/loadgen.json" 2>"$smoke_tmp/loadgen.err"; then
		echo "serve: loadgen smoke failed:"
		cat "$smoke_tmp/loadgen.err"
		kill "$spid" 2>/dev/null || true
		rm -rf "$smoke_tmp"
		exit 1
	fi
	if ! grep -q '"errors": 0,' "$smoke_tmp/loadgen.json"; then
		echo "serve: loadgen reported errors:"
		cat "$smoke_tmp/loadgen.json"
		kill "$spid" 2>/dev/null || true
		rm -rf "$smoke_tmp"
		exit 1
	fi
	echo "   loadgen smoke: $(sed -n 's/.*"requests": \([0-9]*\),.*/\1/p' "$smoke_tmp/loadgen.json" | head -n 1) requests, 0 errors"

	# Deep input: a depth-260 nest (the deep end of the benchmark's tail)
	# decompiles, and 10^6 nested `!` is a 400 from the parser's nesting
	# limit instead of a goroutine stack overflow that ends the process.
	{
		printf '{"source": "long nest(int a, int b) { long x = b; '
		for d in $(seq 0 259); do printf 'if (a > %d) { x = x + %d; ' "$d" $((1 + d % 9)); done
		for _ in $(seq 1 260); do printf '} '; done
		printf 'return x; }", "opt": 2}'
	} >"$smoke_tmp/nest.json"
	{
		printf '{"source": "int f(int a){ return '
		head -c 1000000 /dev/zero | tr '\0' '!'
		printf 'a; }"}'
	} >"$smoke_tmp/nots.json"
	for probe in "nest.json 200" "nots.json 400"; do
		set -- $probe
		code="$(curl -s -o "$smoke_tmp/probe.out" -w '%{http_code}' -X POST \
			--data-binary "@$smoke_tmp/$1" "http://$addr/v1/decompile")"
		if [ "$code" != "$2" ]; then
			echo "serve: /v1/decompile $1 -> HTTP $code, want $2:"
			head -c 300 "$smoke_tmp/probe.out"
			echo
			kill "$spid" 2>/dev/null || true
			rm -rf "$smoke_tmp"
			exit 1
		fi
	done
	code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/healthz")"
	if [ "$code" != "200" ] || ! curl -s "http://$addr/debug/metrics?format=json" | grep -q 'csrc.parse.limit_rejects'; then
		echo "serve: after the nesting-limit rejection /healthz -> HTTP $code or csrc.parse.limit_rejects missing on /debug/metrics"
		kill "$spid" 2>/dev/null || true
		rm -rf "$smoke_tmp"
		exit 1
	fi
	echo "   depth-260 nest -> 200, 10^6 nested ! -> 400 (counted), server still healthy"

	if ! curl -s "http://$addr/debug/metrics?format=json" | grep -q 'serve.request'; then
		echo "serve: /debug/metrics is missing the serve.request series"
		kill "$spid" 2>/dev/null || true
		rm -rf "$smoke_tmp"
		exit 1
	fi
	echo "   /debug/metrics exposes serve.request"

	# Serving a study must not change a single byte vs the CLI.
	cli_sum="$("$smoke_tmp/studysim" -seed 26 2>/dev/null | sha256sum | cut -d' ' -f1)"
	srv_sum="$(curl -s -X POST -d '{"seed": 26}' "http://$addr/v1/study" | sha256sum | cut -d' ' -f1)"
	if [ "$cli_sum" != "$srv_sum" ]; then
		echo "serve: /v1/study diverged from the studysim CLI at seed 26:"
		echo "  cli:    $cli_sum"
		echo "  served: $srv_sum"
		kill "$spid" 2>/dev/null || true
		rm -rf "$smoke_tmp"
		exit 1
	fi
	echo "   /v1/study byte-identical to studysim ($cli_sum)"

	# Served and the CLI share one source front end and renderer, so an
	# annotated -O2 decompile of the same file is the same text.
	cli_sum="$("$smoke_tmp/decompile" -opt 2 -annotate examples/lintdemo/dirty.c 2>/dev/null | sha256sum | cut -d' ' -f1)"
	srv_sum="$(python3 -c 'import json,sys; print(json.dumps({"source": open(sys.argv[1]).read(), "opt": 2, "annotate": True}))' examples/lintdemo/dirty.c |
		curl -s -X POST --data-binary @- "http://$addr/v1/decompile" |
		python3 -c 'import json,sys; sys.stdout.write(json.load(sys.stdin)["output"])' | sha256sum | cut -d' ' -f1)"
	if [ "$cli_sum" != "$srv_sum" ]; then
		echo "serve: /v1/decompile diverged from the decompile CLI on dirty.c at -opt 2 -annotate:"
		echo "  cli:    $cli_sum"
		echo "  served: $srv_sum"
		kill "$spid" 2>/dev/null || true
		rm -rf "$smoke_tmp"
		exit 1
	fi
	echo "   /v1/decompile byte-identical to decompile -opt 2 -annotate on dirty.c ($cli_sum)"

	kill -TERM "$spid"
	if ! wait "$spid"; then
		echo "serve: served exited non-zero on SIGTERM drain:"
		cat "$smoke_tmp/served.err"
		rm -rf "$smoke_tmp"
		exit 1
	fi
	echo "   SIGTERM drained cleanly"
	rm -rf "$smoke_tmp"
}

if [ "${1:-}" = "serve" ]; then
	echo "== serve (admission/e2e suites + live smoke, -race)"
	go test -race -count=1 ./internal/serve/
	go test -race -count=1 -run 'Storm' ./internal/modelstore/
	serve_smoke
	echo "OK"
	exit 0
fi

if [ "${1:-}" = "chaos" ]; then
	echo "== chaos (fault-plan sweep + error-path contracts, -race)"
	go test -race -count=1 -run 'Chaos|ErrorChain|Mask|MaskGenuine|Fault|Plan|Manifest' \
		./internal/fault/ ./internal/par/ ./internal/core/
	echo "OK"
	exit 0
fi

if [ "${1:-}" = "opt" ]; then
	echo "== opt (SSA pipeline: verifier + differential gates, -race)"
	go test -race -count=1 ./internal/compile/opt/
	go test -race -count=1 -run 'Opt' ./internal/corpus/ ./cmd/irlint/

	echo "-- fuzz: mini-C through parse, lower, verify and -O1/-O2 (10s)"
	go test -run NONE -fuzz FuzzOptimizeObject -fuzztime 10s ./internal/compile/opt/

	echo "-- irlint: optimized corpus must stay clean"
	go run ./cmd/irlint -corpus -opt 2

	echo "-- irlint: -opt 1 must delete the seeded dead stores"
	out="$(go run ./cmd/irlint -opt 1 examples/lintdemo/dirty.c || true)"
	if echo "$out" | grep -q 'lint.dead-store]'; then
		echo "opt: dead stores survived -opt 1:"
		echo "$out"
		exit 1
	fi
	if ! echo "$out" | grep -q 'lint.dead-store 3→0'; then
		echo "opt: missing the dead-store delta line:"
		echo "$out"
		exit 1
	fi

	echo "-- studysim: -opt 0 must be byte-identical to the default"
	a="$(go run ./cmd/studysim -seed 26 2>/dev/null | sha256sum | cut -d' ' -f1)"
	b="$(go run ./cmd/studysim -seed 26 -opt 0 2>/dev/null | sha256sum | cut -d' ' -f1)"
	if [ "$a" != "$b" ]; then
		echo "opt: -opt 0 changed studysim output ($a vs $b)"
		exit 1
	fi
	echo "OK"
	exit 0
fi

if [ "${1:-}" = "store" ]; then
	echo "== store (model store + streaming determinism, -race)"
	go test -race -count=1 ./internal/modelstore/
	go test -race -count=1 -run 'Streaming|SharedModel|Task' ./internal/core/ ./internal/par/

	echo "-- studysim: -no-model-cache and jobs must be byte-identical"
	store_identity_sweep
	echo "OK"
	exit 0
fi

if [ "${1:-}" = "debug-smoke" ]; then
	echo "== debug-smoke (live /debug endpoints mid-run, -race)"
	tmp="$(mktemp -d)"
	trap 'rm -rf "$tmp"' EXIT
	go build -race -o "$tmp/studysim" ./cmd/studysim

	echo "-- clean reference run"
	"$tmp/studysim" -jobs 4 >"$tmp/clean.out" 2>/dev/null

	echo "-- instrumented run (delay plan + -debug-addr)"
	"$tmp/studysim" -jobs 1 \
		-faults 'survey.participant:delay,delay=100ms' \
		-debug-addr=127.0.0.1:0 -debug-sample=250ms \
		>"$tmp/dbg.out" 2>"$tmp/dbg.err" &
	pid=$!

	addr=""
	for _ in $(seq 1 100); do
		addr="$(sed -n 's|.*listening on http://\([^/]*\)/debug/.*|\1|p' "$tmp/dbg.err")"
		[ -n "$addr" ] && break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "debug-smoke: server address never appeared on stderr"
		cat "$tmp/dbg.err"
		exit 1
	fi
	echo "   debug server at $addr"
	sleep 1 # let the pipeline get into the delayed survey stage

	fail=0
	for ep in 'debug/health' 'debug/metrics' 'debug/metrics?format=json' \
		'debug/spans' 'debug/spans/trace' 'debug/stage' \
		'debug/stage?format=json' 'debug/pprof/'; do
		code="$(curl -s -o "$tmp/ep.out" -w '%{http_code}' "http://$addr/$ep")"
		if [ "$code" != "200" ] || [ ! -s "$tmp/ep.out" ]; then
			echo "   FAIL $ep -> HTTP $code ($(wc -c <"$tmp/ep.out") bytes)"
			fail=1
			continue
		fi
		case "$ep" in
		*format=json | debug/health | debug/spans | debug/spans/trace)
			if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$tmp/ep.out"; then
				echo "   FAIL $ep -> unparseable JSON"
				fail=1
				continue
			fi
			;;
		debug/metrics)
			if ! grep -q '^# TYPE .* gauge$' "$tmp/ep.out"; then
				echo "   FAIL $ep -> no TYPE lines in exposition"
				fail=1
				continue
			fi
			;;
		esac
		echo "   ok   $ep ($(wc -c <"$tmp/ep.out") bytes)"
	done

	# The runtime sampler must have populated its gauges by now.
	if ! curl -s "http://$addr/debug/metrics" | grep -q '^runtime_goroutines '; then
		echo "   FAIL runtime sampler gauges missing from /debug/metrics"
		fail=1
	fi

	wait "$pid" || {
		echo "debug-smoke: instrumented run exited non-zero"
		fail=1
	}
	[ "$fail" = "0" ] || exit 1

	clean_sum="$(sha256sum "$tmp/clean.out" | cut -d' ' -f1)"
	dbg_sum="$(sha256sum "$tmp/dbg.out" | cut -d' ' -f1)"
	if [ "$clean_sum" != "$dbg_sum" ]; then
		echo "debug-smoke: output diverged with telemetry enabled"
		echo "  clean: $clean_sum"
		echo "  debug: $dbg_sum"
		exit 1
	fi
	echo "   output byte-identical with live telemetry ($clean_sum)"
	echo "OK"
	exit 0
fi

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== irlint"
# The project's own IR linter: corpus and the clean example must be
# finding-free; the deliberately flawed example must trip it.
go run ./cmd/irlint -corpus examples/lintdemo/clean.c
if go run ./cmd/irlint examples/lintdemo/dirty.c >/dev/null 2>&1; then
	echo "irlint: examples/lintdemo/dirty.c should have findings"
	exit 1
fi

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race"
# The pipeline fans out across worker pools everywhere (corpus, survey,
# metrics, experiments); the race detector is part of the gate so a lazy
# init or shared-slice write can't land.
go test -race ./...

echo "== perfbench module"
# perfbench/ is its own module importing this one through a replace
# directive, so root `go vet`/`go test` never compile it: deleting a repo
# API it uses must fail here, not in the benchmark run.
(
	cd perfbench
	export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
	go vet ./...
	go test ./...
)

echo "== bench smoke"
# One iteration of every Go benchmark, so none bit-rots unrun.
go test -run NONE -bench . -benchtime 1x ./...

echo "== model store identity"
store_identity_sweep

echo "== serve smoke"
serve_smoke

echo "OK"
