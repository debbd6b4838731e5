(* Online per-party complexity auditor. See audit.mli for the contract.

   Design constraints inherited from the rest of lib/obs: stdlib-only (the
   library sits at the bottom of the dependency DAG), and cheap enough to
   leave attached to every metered network. An instance is owned by one
   protocol execution and mutated single-threadedly by that execution's
   network. It charges nothing itself: the network's metrics count every
   message once, and each [Round_end] hands the auditor the round's
   charges per party, so it does O(charged parties) work per round and
   none per message. *)

type curve = { c : float; log_exp : int; kappa_exp : int }

let curve ~c ~log_exp ~kappa_exp = { c; log_exp; kappa_exp }

(* ceil(log2 n), clamped to >= 2 so curves are monotone from tiny n. *)
let log2_ceil n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  max 2 (go 0 (max 1 n))

let powf b e =
  let rec go acc e = if e <= 0 then acc else go (acc *. b) (e - 1) in
  go 1.0 e

let eval cv ~n ~kappa =
  cv.c
  *. powf (float_of_int (log2_ceil n)) cv.log_exp
  *. powf (float_of_int kappa) cv.kappa_exp

let pp_curve ppf cv =
  let factor name e =
    if e = 0 then "" else if e = 1 then "*" ^ name else Printf.sprintf "*%s^%d" name e
  in
  Format.fprintf ppf "%g%s%s" cv.c (factor "log(n)" cv.log_exp)
    (factor "k" cv.kappa_exp)

type budgets = {
  round_bits : curve option;
  round_locality : curve option;
  total_bits : curve option;
}

let no_budgets = { round_bits = None; round_locality = None; total_bits = None }

type kind = Round_bits | Round_locality | Total_bits

let kind_name = function
  | Round_bits -> "round-bits"
  | Round_locality -> "round-locality"
  | Total_bits -> "total-bits"

type violation = {
  v_party : int;
  v_round : int;
  v_phase : string;
  v_kind : kind;
  v_observed : float;
  v_budget : float;
}

type round_rec = {
  tr_round : int;
  tr_phase : string;
  tr_max_bits : int;
  tr_mean_bits : float;
  tr_active : int;
  tr_scheduled : int;
  tr_sent_bits : int;
  tr_max_locality : int;
  tr_violations : int;
}

(* Violations recorded by any auditor also bump a registry counter, so
   bench experiments (which snapshot the registry) carry violation counts.
   Network traffic is pool-size independent, hence so is this counter. *)
let c_violations = Counters.make "audit.violations"

type t = {
  a_label : string;
  a_n : int;
  a_kappa : int;
  a_budgets : budgets;
  corrupt : bool array; (* folded from [Corrupt] events *)
  mutable honest_n : int; (* cached honest count, tracks [corrupt] *)
  (* whole-execution figures, as of each party's last charged round *)
  totals : int array;
  total_peers : int array;
  viol_of_party : int array;
  mutable phases : string list; (* stack of joined paths, innermost first *)
  mutable violations_rev : violation list;
  mutable violation_count : int;
  mutable timeline_rev : round_rec list;
  mutable rounds_seen : int;
  mutable max_round_bits : int;
  mutable max_round_locality : int;
  mutable finalized : bool;
  mutable last_round : int;
}

let kappa_default = 128

let create ?(label = "audit") ?(kappa = kappa_default) ~n ~budgets () =
  if n < 1 then invalid_arg "Audit.create: n < 1";
  {
    a_label = label;
    a_n = n;
    a_kappa = kappa;
    a_budgets = budgets;
    corrupt = Array.make n false;
    honest_n = n;
    totals = Array.make n 0;
    total_peers = Array.make n 0;
    viol_of_party = Array.make n 0;
    phases = [];
    violations_rev = [];
    violation_count = 0;
    timeline_rev = [];
    rounds_seen = 0;
    max_round_bits = 0;
    max_round_locality = 0;
    finalized = false;
    last_round = -1;
  }

let label t = t.a_label
let n t = t.a_n
let kappa t = t.a_kappa
let budgets t = t.a_budgets

(* The budget checks skip corrupt parties from the moment their [Corrupt]
   event arrives: the adversary can always inflate its own numbers. *)
let mark_corrupt t p =
  if p >= 0 && p < t.a_n && not t.corrupt.(p) then begin
    t.corrupt.(p) <- true;
    t.honest_n <- t.honest_n - 1
  end

let honest t p = not t.corrupt.(p)

(* --- phase stack --- *)

let current_phase t = match t.phases with [] -> "" | p :: _ -> p

let push_phase t name =
  let joined =
    match t.phases with [] -> name | top :: _ -> top ^ ">" ^ name
  in
  t.phases <- joined :: t.phases

let pop_phase t =
  match t.phases with [] -> () | _ :: rest -> t.phases <- rest

let record t v =
  t.violations_rev <- v :: t.violations_rev;
  t.violation_count <- t.violation_count + 1;
  if v.v_party >= 0 && v.v_party < t.a_n then
    t.viol_of_party.(v.v_party) <- t.viol_of_party.(v.v_party) + 1;
  Counters.bump c_violations

let check t ~party ~round ~kind ~observed = function
  | None -> false
  | Some cv ->
    let budget = eval cv ~n:t.a_n ~kappa:t.a_kappa in
    if observed > budget then begin
      record t
        {
          v_party = party;
          v_round = round;
          v_phase = current_phase t;
          v_kind = kind;
          v_observed = observed;
          v_budget = budget;
        };
      true
    end
    else false

(* Parties the round did not charge have zero bits and locality: they
   cannot violate a (positive) budget nor move max, sum or active, so only
   the charged ones are visited — in ascending order, the order violation
   records are pinned in. *)
let end_round t (s : Event.round_summary) =
  let round = s.round in
  t.last_round <- round;
  t.rounds_seen <- t.rounds_seen + 1;
  let max_bits = ref 0 and sum_bits = ref 0 and active = ref 0 in
  let max_loc = ref 0 and viols = ref 0 in
  Array.iter
    (fun (c : Event.charge) ->
      let p = c.party in
      t.totals.(p) <- c.total_bits;
      t.total_peers.(p) <- c.total_peers;
      if honest t p then begin
        let bits = c.round_bits and loc = c.round_peers in
        if bits > !max_bits then max_bits := bits;
        sum_bits := !sum_bits + bits;
        if loc > !max_loc then max_loc := loc;
        incr active;
        if
          check t ~party:p ~round ~kind:Round_bits ~observed:(float_of_int bits)
            t.a_budgets.round_bits
        then incr viols;
        if
          check t ~party:p ~round ~kind:Round_locality
            ~observed:(float_of_int loc) t.a_budgets.round_locality
        then incr viols
      end)
    s.charged;
  if !max_bits > t.max_round_bits then t.max_round_bits <- !max_bits;
  if !max_loc > t.max_round_locality then t.max_round_locality <- !max_loc;
  t.timeline_rev <-
    {
      tr_round = round;
      tr_phase = current_phase t;
      tr_max_bits = !max_bits;
      tr_mean_bits = float_of_int !sum_bits /. float_of_int (max 1 t.honest_n);
      tr_active = !active;
      tr_scheduled = s.scheduled;
      tr_sent_bits = s.sent_bits;
      tr_max_locality = !max_loc;
      tr_violations = !viols;
    }
    :: t.timeline_rev

let observe t : Event.t -> unit = function
  | Round_end s -> end_round t s
  | Phase_enter { name; _ } -> push_phase t name
  | Phase_exit -> pop_phase t
  | Corrupt p -> mark_corrupt t p
  | Send _ | Committee _ | Decide _ -> ()

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    for p = 0 to t.a_n - 1 do
      if honest t p then
        ignore
          (check t ~party:p ~round:t.last_round ~kind:Total_bits
             ~observed:(float_of_int t.totals.(p))
             t.a_budgets.total_bits)
    done
  end

(* --- results --- *)

let violations t = List.rev t.violations_rev
let violation_count t = t.violation_count
let timeline t = List.rev t.timeline_rev
let max_round_bits t = t.max_round_bits
let max_round_locality t = t.max_round_locality
let rounds_seen t = t.rounds_seen

let total_bits_max t =
  let m = ref 0 in
  for p = 0 to t.a_n - 1 do
    if honest t p && t.totals.(p) > !m then m := t.totals.(p)
  done;
  !m

let total_locality_max t =
  let m = ref 0 in
  for p = 0 to t.a_n - 1 do
    if honest t p then m := max !m t.total_peers.(p)
  done;
  !m

let worst_offenders ?(top = 5) t =
  let parties = ref [] in
  for p = t.a_n - 1 downto 0 do
    if honest t p then parties := (p, t.viol_of_party.(p), t.totals.(p)) :: !parties
  done;
  let ranked =
    List.sort
      (fun (_, va, ba) (_, vb, bb) ->
        if va <> vb then compare vb va else compare bb ba)
      !parties
  in
  List.filteri (fun i _ -> i < top) ranked

(* --- JSONL timeline --- *)

let timeline_row_json ?protocol r =
  let protocol =
    match protocol with Some p -> [ ("protocol", Json.Str p) ] | None -> []
  in
  Json.(
    Obj
      (protocol
      @ [
          "round", int r.tr_round; "phase", Str r.tr_phase;
          "max_bits", int r.tr_max_bits; "mean_bits", fixed 1 r.tr_mean_bits;
          "active", int r.tr_active; "scheduled", int r.tr_scheduled;
          "sent_bits", int r.tr_sent_bits; "max_locality", int r.tr_max_locality;
          "violations", int r.tr_violations;
        ]))

let timeline_jsonl ?protocol t =
  String.concat ""
    (List.map (fun r -> Json.compact (timeline_row_json ?protocol r) ^ "\n") (timeline t))

(* --- summary --- *)

let pp_budget_line ppf name observed = function
  | None -> Format.fprintf ppf "  %-18s %12d  (no budget)@." name observed
  | Some (cv, n, kappa) ->
    let b = eval cv ~n ~kappa in
    Format.fprintf ppf "  %-18s %12d  budget %12.0f  [%a]  %s@." name observed b
      pp_curve cv
      (if float_of_int observed > b then "VIOLATED" else "ok")

let pp_summary ppf t =
  let w cv = Option.map (fun c -> (c, t.a_n, t.a_kappa)) cv in
  Format.fprintf ppf "audit %s: n=%d kappa=%d rounds=%d violations=%d@."
    t.a_label t.a_n t.a_kappa t.rounds_seen t.violation_count;
  pp_budget_line ppf "max bits/round" t.max_round_bits (w t.a_budgets.round_bits);
  pp_budget_line ppf "max locality/round" t.max_round_locality
    (w t.a_budgets.round_locality);
  pp_budget_line ppf "max total bits" (total_bits_max t) (w t.a_budgets.total_bits);
  Format.fprintf ppf "  %-18s %12d@." "cumulative peers" (total_locality_max t);
  if t.violation_count > 0 then begin
    Format.fprintf ppf "  worst offenders (party: violations, total bits):@.";
    List.iter
      (fun (p, v, bits) ->
        if v > 0 then Format.fprintf ppf "    party %4d: %5d  %12d@." p v bits)
      (worst_offenders ~top:5 t)
  end

(* --- global audit mode --- *)

let global = Atomic.make (Sys.getenv_opt "REPRO_AUDIT" <> None)
let global_enabled () = Atomic.get global
let enable_global () = Atomic.set global true
let disable_global () = Atomic.set global false
