.PHONY: build test bench bench-smoke bench-compare audit attack trace \
  scale scale-smoke profile profile-smoke forensics-smoke async-smoke \
  conditions-smoke cli-smoke check clean

BA_SIM = ./_build/default/bin/ba_sim.exe

# $(call domains_identical,ARGS,OUT1,OUT4,WHAT): run `ba_sim ARGS OUT1` at
# REPRO_DOMAINS=1 and validate OUT1, run `ba_sim ARGS OUT4` at
# REPRO_DOMAINS=4, and require the two files to be byte-identical. ARGS
# ends with the option that names the output file.
define domains_identical
	REPRO_DOMAINS=1 $(BA_SIM) $(1) $(2)
	$(BA_SIM) validate $(2)
	REPRO_DOMAINS=4 $(BA_SIM) $(1) $(3) > /dev/null
	cmp $(2) $(3) && echo "$(4): byte-identical across REPRO_DOMAINS=1 vs 4"
endef

build:
	dune build

test: build
	dune runtest

# Full benchmark harness (standard mode; BENCH_FULL=1 env for larger sweeps).
bench: build
	./_build/default/bench/main.exe

# <30s subset that still writes BENCH_results.json, then checks it parses.
bench-smoke: build
	BENCH_SMOKE=1 ./_build/default/bench/main.exe
	$(BA_SIM) validate BENCH_results.json

# Two smoke runs diffed against each other: exercises the regression
# gate end-to-end (identical runs must report no regressions, exit 0).
bench-compare: build
	BENCH_SMOKE=1 ./_build/default/bench/main.exe
	cp BENCH_results.json BENCH_prev.json
	BENCH_SMOKE=1 ./_build/default/bench/main.exe
	./_build/default/bench/main.exe --compare BENCH_prev.json BENCH_results.json

# Audit every Table-1 protocol against its declared complexity budget and
# validate the per-round timeline (one JSON object per line). Exits
# non-zero if a this-work protocol exceeds its own polylog budget. The
# timeline must be byte-identical across REPRO_DOMAINS=1 vs 4.
audit: build
	$(call domains_identical,audit --timeline-out,audit_timeline.jsonl,audit_timeline4.jsonl,audit timeline)

# <30s attack-matrix smoke (E16): every catalogue strategy against both
# pipeline protocols. Exits non-zero if any beta < 1/3 cell breaks
# agreement/validity or the beta >= 1/3 sanity row fails to fail, then
# checks the repro-attack/2 report parses.
attack: build
	$(BA_SIM) attack -n 40 --report ATTACK_report.json
	$(BA_SIM) validate ATTACK_report.json

# Record a Chrome trace of one small BA run and check it is well-formed
# JSON with at least one complete ("X") event. Open trace.json in
# https://ui.perfetto.dev to browse it.
trace: build
	$(BA_SIM) run --protocol owf -n 128 --trace-out trace.json
	$(BA_SIM) validate trace.json
	grep -q '"ph":"X"' trace.json && \
	  echo "trace.json: valid Chrome trace ($$(grep -c '"ph":"X"' trace.json) events)"

# E17 large-n scale sweep: the Fig. 3 pipeline up to n = 4096 on the
# active-set stepper at zero knobs (lock-step), baselines capped where their
# simulation cost turns quadratic.
# Exits non-zero if a this-work curve breaks its declared budget or no
# baseline demonstrates the separation. Takes a few minutes.
scale: build
	$(BA_SIM) scale --report SCALE_report.json
	$(BA_SIM) validate SCALE_report.json

# Same sweep and gates at smoke scale (< 60s), for CI and `make check`.
scale-smoke: build
	$(BA_SIM) scale --ns 64,128,256 --report SCALE_report.json
	$(BA_SIM) validate SCALE_report.json

# Self-profiled BA run: per-span GC/alloc hotspot tables, cache and pool
# introspection, and a validated repro-profile/1 report.
profile: build
	$(BA_SIM) profile -p owf -n 256 --report PROFILE_report.json
	$(BA_SIM) validate PROFILE_report.json

# <30s variant for CI and `make check`: a small profiled run, then a second
# run compared against the fresh report — deterministic sections are exact,
# so the self-compare must exit 0.
profile-smoke: build
	$(BA_SIM) profile -p owf -n 64 --report PROFILE_report.json
	$(BA_SIM) validate PROFILE_report.json
	$(BA_SIM) profile -p owf -n 64 --compare PROFILE_report.json

# <60s forensics smoke: a small-n explain with the transcript-replay
# round-trip (non-zero exit if any cone blows the locality budget or the
# replay diverges), a recorded-log byte-identity check across
# REPRO_DOMAINS=1 vs 4, and the equivocation-evidence teeth check (the
# planted equivocate strategy must be convicted). Both reports are
# validated as JSON.
forensics-smoke: build
	$(BA_SIM) explain -p owf -n 48 --replay-check \
	  --report FORENSICS_report.json
	$(BA_SIM) validate FORENSICS_report.json
	$(call domains_identical,explain -p owf -n 48 --log-out,FORENSICS_log1.jsonl,FORENSICS_log4.jsonl,recorded log)
	$(BA_SIM) attack -n 40 --strategies equivocate \
	  --forensics FORENSICS_attack.json
	$(BA_SIM) validate FORENSICS_attack.json

# <60s E18 smoke: executor-path conformance (at zero knobs the lock-step
# shortcut and the general (time, seq) path must produce one transcript
# digest per cell) plus the async chaos matrix — jitter and pre-GST loss
# against live adversaries, owf at n=256 included. Non-zero exit if the
# paths disagree or a chaos cell breaks agreement/validity or the post-GST
# bound. The repro-async/2 report is validated as JSON and must be
# byte-identical across REPRO_DOMAINS=1 vs 4.
async-smoke: build
	$(call domains_identical,conform --ns 64 --report,ASYNC_report1.json,ASYNC_report4.json,conform report)

# <30s E19 smoke: the network-condition attack matrix — partitions, churn,
# delay and adaptive corruption under the chaos knobs against owf, snark
# and the Dolev-Strong baseline, including the planted never-healing /
# unbounded-adaptive teeth rows (which must fail). The repro-attack/2
# report is validated as JSON and must be byte-identical across
# REPRO_DOMAINS=1 vs 4.
CONDITIONS_ARGS = attack -n 40 --betas 0.125 --sanity-betas 0.45 \
  --strategies silent,equivocate --conditions --report
conditions-smoke: build
	$(call domains_identical,$(CONDITIONS_ARGS),CONDITIONS_report1.json,CONDITIONS_report4.json,conditions report)

# <10s: the experiment subcommands no other target runs, at small n. Each
# exits non-zero if its experiment's gate fails.
cli-smoke: build
	$(BA_SIM) table1 --ns 32
	$(BA_SIM) sweep --ns 32,64
	$(BA_SIM) games -n 64
	$(BA_SIM) boost -n 64
	$(BA_SIM) broadcast -n 48
	$(BA_SIM) attacks -n 64
	$(BA_SIM) conditions

# Umbrella gate: build, unit tests, bench JSON smoke, complexity audit,
# attack matrix, scale sweep smoke, profile smoke, forensics smoke,
# async/conformance smoke, conditions smoke, CLI smoke — everything a PR
# must keep green, with a wall-clock guard so a performance regression in
# any harness fails the target rather than silently eating CI minutes.
CHECK_BUDGET_S ?= 420
check: build
	@t0=$$(date +%s); \
	$(MAKE) test bench-smoke audit attack scale-smoke profile-smoke \
	  forensics-smoke async-smoke conditions-smoke cli-smoke || exit 1; \
	t1=$$(date +%s); elapsed=$$((t1 - t0)); \
	echo "check: all gates green in $${elapsed}s (budget $(CHECK_BUDGET_S)s)"; \
	if [ $$elapsed -gt $(CHECK_BUDGET_S) ]; then \
	  echo "check: EXCEEDED wall-clock budget ($${elapsed}s > $(CHECK_BUDGET_S)s)"; \
	  exit 1; \
	fi

clean:
	dune clean
	rm -f BENCH_results.json BENCH_prev.json trace.json \
	  audit_timeline.jsonl audit_timeline4.jsonl \
	  ATTACK_report.json SCALE_report.json PROFILE_report.json \
	  FORENSICS_report.json FORENSICS_attack.json \
	  FORENSICS_log1.jsonl FORENSICS_log4.jsonl \
	  ASYNC_report1.json ASYNC_report4.json \
	  CONDITIONS_report1.json CONDITIONS_report4.json
