.PHONY: build test bench bench-smoke bench-compare audit attack trace \
  scale scale-smoke profile profile-smoke forensics-smoke async-smoke \
  conditions-smoke cli-smoke examples-smoke list-world build-flags \
  hashtbl-order check clean

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

# The pool-size gate: two smoke runs, at pool sizes 1 and 4, must write
# equal deterministic halves (`ba_sim diff`: every counter and row is
# exact, so anything that moves with the pool size fails here). The first
# run's file is kept under _build/; the second is BENCH_results.json,
# validated as bench-smoke validates it.
BENCH_DOMAINS1 = _build/BENCH_results_domains1.json
bench-compare: build
	REPRO_DOMAINS=1 BENCH_SMOKE=1 ./_build/default/bench/main.exe
	cp BENCH_results.json $(BENCH_DOMAINS1)
	REPRO_DOMAINS=4 BENCH_SMOKE=1 ./_build/default/bench/main.exe
	$(BA_SIM) validate BENCH_results.json
	$(BA_SIM) diff $(BENCH_DOMAINS1) BENCH_results.json

# Audit every Table-1 protocol against its declared complexity budget and
# validate the per-round timeline (one JSON object per line). Exits
# non-zero if a this-work protocol exceeds its own polylog budget. The
# timeline must be byte-identical across REPRO_DOMAINS=1 vs 4.
audit: build
	$(call domains_identical,audit --timeline-out,audit_timeline.jsonl,audit_timeline4.jsonl,audit timeline)

# <30s attack-matrix smoke (E16): every catalogue strategy against both
# pipeline protocols. Exits non-zero if any beta < 1/3 cell breaks
# agreement/validity or the beta >= 1/3 sanity row fails to fail. The
# repro-attack/2 report is validated as JSON and must be byte-identical
# across REPRO_DOMAINS=1 vs 4.
attack: build
	$(call domains_identical,attack -n 40 --report,ATTACK_report.json,ATTACK_report4.json,attack report)

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

# Self-profiled BA run: per-span GC/alloc hotspot tables, pool
# introspection, and a validated repro-profile/2 report (under _build/, so
# the committed owf n = 64 report below is left alone).
profile: build
	$(BA_SIM) profile -p owf -n 256 --report _build/PROFILE_report_256.json
	$(BA_SIM) validate _build/PROFILE_report_256.json

# <30s variant for CI and `make check`. PROFILE_report.json is committed:
# a fresh small profiled run, written under _build/ (never over the
# committed report, whose wall fields would change) and validated, must
# equal it (`ba_sim diff`: every member but "nondeterministic"), so a
# change that moves a counter, histogram or span count fails here until
# the report regenerated with `ba_sim profile -p owf -n 64 --report
# PROFILE_report.json` is committed with it. A rerun, and a third run on a
# 4-domain pool, must equal the fresh report too.
PROFILE_FRESH = _build/PROFILE_report_fresh.json
PROFILE_RERUN = _build/PROFILE_report_rerun.json
PROFILE_DOMAINS4 = _build/PROFILE_report_domains4.json
profile-smoke: build
	$(BA_SIM) profile -p owf -n 64 --report $(PROFILE_FRESH)
	$(BA_SIM) validate $(PROFILE_FRESH)
	$(BA_SIM) diff PROFILE_report.json $(PROFILE_FRESH)
	$(BA_SIM) profile -p owf -n 64 --report $(PROFILE_RERUN) > /dev/null
	$(BA_SIM) diff $(PROFILE_FRESH) $(PROFILE_RERUN)
	REPRO_DOMAINS=4 $(BA_SIM) profile -p owf -n 64 --report $(PROFILE_DOMAINS4) > /dev/null
	$(BA_SIM) diff $(PROFILE_FRESH) $(PROFILE_DOMAINS4)

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

# $(call stdout_identical,ARGS,NAME): print the standard output of
# `ba_sim ARGS` at REPRO_DOMAINS=1, run it again at REPRO_DOMAINS=4 (each
# run must exit 0), and require the two outputs to be byte-identical. The
# outputs go under _build/.
define stdout_identical
	REPRO_DOMAINS=1 $(BA_SIM) $(1) > _build/cli-$(2)1.txt
	cat _build/cli-$(2)1.txt
	REPRO_DOMAINS=4 $(BA_SIM) $(1) > _build/cli-$(2)4.txt
	cmp _build/cli-$(2)1.txt _build/cli-$(2)4.txt && echo "$(2): stdout byte-identical across REPRO_DOMAINS=1 vs 4"
endef

# <10s: the experiment subcommands no other target runs, at small n. Each
# exits non-zero if its experiment's gate fails; boost, broadcast and
# attacks, which run the election, the disseminations and the boost round,
# and games, whose trials run both schemes' WOTS keygen, sign and verify on
# the domain pool, must also print the same bytes on one domain as on four. Then `run`, the CLI's one
# path through Runner.run/run_audited: every protocol at n = 32, once under
# the executor knobs and once audited. `run` exits 1 when its row reads
# ok=false, and each line must also print its row with ok=true. Dolev-Strong
# runs again at seed 2, whose sender is honest, so its relay and signature
# code runs and every honest party must output the sender's value. The last
# line must fail: beta = 0.45 breaks the tree, and `run` must say so in its
# exit status. Last, `diff` of the committed profile report with itself
# exits 0, and with a copy whose hashx.hash counter is changed, exits 1.
cli-smoke: build
	for p in owf snark multisig sqrt naive ds; do \
	  $(BA_SIM) run -p $$p -n 32 | grep ' ok=true ' || exit 1; \
	done
	$(BA_SIM) run -p owf -n 32 --jitter 2 --gst 8 | grep ' ok=true '
	$(BA_SIM) run -p owf -n 32 --audit | grep ' ok=true '
	$(BA_SIM) run -p ds -n 32 --seed 2 | grep ' ok=true (correct=1.00)'
	! $(BA_SIM) run -p owf -n 32 --beta 0.45
	$(BA_SIM) table1 --ns 32
	$(BA_SIM) sweep --ns 32,64
	$(call stdout_identical,games -n 64,games)
	$(call stdout_identical,boost -n 64,boost)
	$(call stdout_identical,broadcast -n 48,broadcast)
	$(call stdout_identical,attacks -n 64,attacks)
	$(BA_SIM) conditions
	$(BA_SIM) diff PROFILE_report.json PROFILE_report.json
	sed 's/"hashx.hash":/"hashx.hash":1/' PROFILE_report.json > _build/PROFILE_report_bumped.json
	$(BA_SIM) diff PROFILE_report.json _build/PROFILE_report_bumped.json; test $$? -eq 1

# Run the five examples: each prints to stdout and writes no file;
# quickstart exits non-zero when its run fails agreement or validity.
EXAMPLES = quickstart srds_tour validator_vote ae_to_full tree_explorer
examples-smoke: build
	for e in $(EXAMPLES); do \
	  ./_build/default/examples/$$e.exe > /dev/null || { echo "example $$e failed"; exit 1; }; \
	done
	@echo "examples-smoke: $(words $(EXAMPLES)) examples ran"

# Handlers, the rushing adversary and conditions read Inbox views; the
# list world must not regrow in lib/. Only the network itself may name
# run_active (the ledger's list adapter), and no interface but the
# network's (whose run_active signature takes one) may mention a
# Wire.msg list.
list-world:
	@if grep -rl 'run_active' lib | grep -v '^lib/net/network\.mli\?$$'; then \
	  echo "list-world: run_active named outside lib/net/network.ml(i)"; exit 1; \
	fi
	@if grep -rl --include='*.mli' 'Wire\.msg list' lib | grep -v '^lib/net/network\.mli$$'; then \
	  echo "list-world: an interface under lib/ mentions Wire.msg list"; exit 1; \
	fi
	@echo "list-world: no list handlers in lib/"

# The build settings: ./dune-workspace selects the release profile, so
# library modules are compiled without -opaque (the dev profile's flag,
# which forbids cross-module inlining on the per-message path), and ./dune
# keeps the dev profile's warnings as errors in every profile and raises
# ocamlopt's inlining level to -inline 200.
NETWORK_CMX = _build/default/lib/net/.repro_net.objs/native/repro_net__Network.cmx
WARN_SPEC = (flags(-w@1..3@5..28@30..39@43@46..47@49..57@61..62-40-strict-sequence-strict-formats-short-paths-keep-locs
build-flags:
	@rule=$$(dune rules $(NETWORK_CMX)); \
	if ! printf '%s' "$$rule" | grep -q ocamlopt; then \
	  echo "build-flags: no ocamlopt rule for $(NETWORK_CMX)"; exit 1; \
	fi; \
	if printf '%s' "$$rule" | grep -q -- '-opaque'; then \
	  echo "build-flags: $(NETWORK_CMX) is compiled with -opaque"; exit 1; \
	fi; \
	if ! printf '%s' "$$rule" | tr -s ' \n' '  ' | grep -q -- '-inline 200 '; then \
	  echo "build-flags: $(NETWORK_CMX) is compiled without -inline 200"; exit 1; \
	fi
	@if ! dune printenv lib/net | tr -d ' \n' | grep -qF -- '$(WARN_SPEC)'; then \
	  echo "build-flags: lib/net is not built with the warnings-as-errors spec"; exit 1; \
	fi
	@echo "build-flags: no -opaque, -inline 200, warnings are errors"

# Transcripts must not follow Hashtbl layout (ROADMAP item 12), so lib/
# may gain no Hashtbl.iter/fold/to_seq* site. The allow-list holds
# today's sites as file:count pairs, and the found sites must match it
# exactly: a change that removes a site lowers its count here, so the
# list only shrinks.
HASHTBL_ORDER_SITES = lib/aetree/attacks.ml:2 lib/aetree/election.ml:1 \
  lib/consensus/dolev_strong.ml:1 lib/core/balanced_ba.ml:3 \
  lib/net/engine.ml:1 lib/net/metrics.ml:1 lib/obs/profile.ml:1 \
  lib/obs/recorder.ml:2
hashtbl-order:
	@found=$$(grep -rEo --include='*.ml' 'Hashtbl\.(iter|fold|to_seq[a-z_]*)\b' lib \
	  | cut -d: -f1 | sort | uniq -c | awk '{print $$2 ":" $$1}'); \
	allowed=$$(printf '%s\n' $(HASHTBL_ORDER_SITES) | sort); \
	if [ "$$found" != "$$allowed" ]; then \
	  echo "hashtbl-order: Hashtbl.iter/fold/to_seq sites in lib/ differ from the allow-list"; \
	  echo "found:"; echo "$$found"; echo "allowed:"; echo "$$allowed"; exit 1; \
	fi
	@echo "hashtbl-order: $(words $(HASHTBL_ORDER_SITES)) files, no new Hashtbl iteration site"

# Umbrella gate: build, unit tests, the bench pool-size gate, complexity audit,
# attack matrix, scale sweep smoke, profile smoke, forensics smoke,
# async/conformance smoke, conditions smoke, CLI smoke, the examples, the
# list-world, build-flags and hashtbl-order checks —
# everything a PR must keep green, with a wall-clock guard so a performance
# regression in any harness fails the target rather than silently eating
# CI minutes.
# The gates write only ignored files: in a git checkout, `git status` must
# read the same after them as before.
CHECK_BUDGET_S ?= 420
check: build
	@t0=$$(date +%s); \
	status0=$$(git status --porcelain 2>/dev/null); \
	$(MAKE) test bench-compare audit attack scale-smoke profile-smoke \
	  forensics-smoke async-smoke conditions-smoke cli-smoke examples-smoke \
	  list-world build-flags hashtbl-order || exit 1; \
	if [ "$$(git status --porcelain 2>/dev/null)" != "$$status0" ]; then \
	  echo "check: the gates changed the working tree:"; git status --short; \
	  exit 1; \
	fi; \
	t1=$$(date +%s); elapsed=$$((t1 - t0)); \
	echo "check: all gates green in $${elapsed}s (budget $(CHECK_BUDGET_S)s)"; \
	if [ $$elapsed -gt $(CHECK_BUDGET_S) ]; then \
	  echo "check: EXCEEDED wall-clock budget ($${elapsed}s > $(CHECK_BUDGET_S)s)"; \
	  exit 1; \
	fi

clean:
	dune clean
	rm -f BENCH_results.json trace.json \
	  audit_timeline.jsonl audit_timeline4.jsonl \
	  ATTACK_report.json ATTACK_report4.json SCALE_report.json \
	  FORENSICS_report.json FORENSICS_attack.json \
	  FORENSICS_log1.jsonl FORENSICS_log4.jsonl \
	  ASYNC_report1.json ASYNC_report4.json \
	  CONDITIONS_report1.json CONDITIONS_report4.json
