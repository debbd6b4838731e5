(* Composable network conditions over the network's executor.

   Where {!Strategy} composes Byzantine *content* (what corrupt parties
   say), a condition composes Byzantine *conditions* (what the network
   does): seeded extra delay within the partial-synchrony envelope, named
   partitions that heal at GST, crash-recovery churn, and the King–Saia
   adaptive adversary that watches committee traffic before choosing whom
   to corrupt. A condition is a recipe like a strategy: a name plus a
   [prepare] that, given the run's (n, beta, seed, async cfg), builds the
   {!Sched.condition} record the network executor consults per delivery.
   Every instance draws from its own (seed, name)-derived SplitMix stream,
   so composites stay deterministic and sibling conditions never perturb
   each other — or the executor's per-edge latency streams, which the
   condition layer only observes, never advances. *)

module Rng = Repro_util.Rng
module Sched = Repro_net.Sched
module Inbox = Repro_net.Inbox
module Attacks = Repro_aetree.Attacks

type t = {
  name : string;
  static_fraction : float;
      (* share of the cell's beta drawn as the *static* corrupt set; the
         adaptive condition leaves itself the rest as upgrade budget so
         the total never exceeds beta * n *)
  prepare :
    n:int -> beta:float -> seed:int -> cfg:Sched.async_cfg -> Sched.condition;
}

let name t = t.name
let static_fraction t = t.static_fraction
let prepare t ~n ~beta ~seed ~cfg = t.prepare ~n ~beta ~seed ~cfg

(* The static corrupt-set size a runner should draw for this condition:
   the usual floor(beta * n), scaled down when the condition reserves part
   of the corruption budget for adaptive upgrades. The adaptive [prepare]
   recomputes the same split, so static + upgrades <= floor(beta * n). *)
let static_size t ~n ~beta =
  int_of_float (beta *. t.static_fraction *. float_of_int n)

let make ~name ?(static_fraction = 1.0) prepare =
  {
    name;
    static_fraction;
    prepare =
      (fun ~n ~beta ~seed ~cfg ->
        prepare ~n ~beta ~rng:(Rng.create (Strategy.seed_of ~seed name)) ~cfg);
  }

let no_down ~now:_ ~round:_ _ = false
let no_observe ~now:_ ~round:_ ~msgs:_ ~corrupt:(_ : int -> unit) = ()

(* --- delay: seeded reordering within the envelope --- *)

(* Every delivery gains an extra seeded latency on top of the edge
   stream's draw. Pre-GST the extra is unbounded by delta (like jitter);
   post-GST the total is clamped back under the 1 + delta contract, so
   the condition reorders within the envelope without ever creating a
   post-GST straggler. *)
let delay =
  make ~name:"delay" (fun ~n:_ ~beta:_ ~rng ~cfg ->
      let cap = max 1 cfg.Sched.a_jitter in
      {
        Sched.c_name = "delay";
        c_route =
          (fun ~now ~round:_ ~src:_ ~dst:_ ~lat ->
            let extra = Rng.int rng (cap + 1) in
            if now >= cfg.Sched.a_gst then
              Sched.deliver (Int.min (lat + extra) (1 + Int.max 0 cfg.Sched.a_delta))
            else Sched.deliver (lat + extra));
        c_down = no_down;
        c_observe = no_observe;
      })

(* --- partitions: a named split that heals at GST --- *)

(* [partition_of ~sever ~heal victims] cuts the victim side's *uplink*:
   pre-heal, a message from a victim to the main side is parked on the
   heap until virtual time [heal]. The victims keep hearing the majority
   (their state stays current), but the majority experiences them as
   crashed until the heal — the minority side of a real partition, under
   the model's honest-reliability guarantee that severed traffic is
   delayed, never destroyed. [sever] additionally cuts the downlink
   (both directions), which is the never-healing teeth variant: with the
   split never healing and both directions dark, agreement must die. *)
let partition_of ~name ~sever ~heal ~victims ~n =
  let in_v = Array.make n false in
  List.iter (fun p -> if p >= 0 && p < n then in_v.(p) <- true) victims;
  let cross src dst =
    if sever then in_v.(src) <> in_v.(dst)
    else in_v.(src) && not in_v.(dst)
  in
  {
    Sched.c_name = name;
    c_route =
      (fun ~now ~round:_ ~src ~dst ~lat ->
        if now < heal && cross src dst then Sched.Defer heal
        else Sched.deliver lat);
    c_down = no_down;
    c_observe = no_observe;
  }

(* Seeded victim side of ~n/8 parties. *)
let partition =
  make ~name:"partition" (fun ~n ~beta:_ ~rng ~cfg ->
      let victims = Rng.subset rng ~n ~size:(max 1 (n / 8)) in
      partition_of ~name:"partition" ~sever:false ~heal:cfg.Sched.a_gst
        ~victims ~n)

(* Committee-aware split: the victim side is chosen by the same public
   tree-assignment greedy the Kill_leaves corruption strategy uses, so the
   partition tries to isolate whole leaf committees — the split that hurts
   the aggregation tree most for its size. *)
let partition_leaves =
  make ~name:"partition-leaves" (fun ~n ~beta:_ ~rng ~cfg ->
      let victims =
        Strategy.tree_victims ~n
          ~seed:(Rng.int rng 0x3FFFFFFF)
          ~strategy:Attacks.Kill_leaves ~budget:(max 1 (n / 8))
      in
      partition_of ~name:"partition-leaves" ~sever:false
        ~heal:cfg.Sched.a_gst ~victims ~n)

(* Teeth: a bidirectional half-split that never heals. Planted to prove
   the matrix can fail — this must break agreement or liveness. *)
let partition_forever =
  make ~name:"partition-forever" (fun ~n ~beta:_ ~rng:_ ~cfg:_ ->
      let victims = List.init (n / 2) (fun i -> i) in
      partition_of ~name:"partition-forever" ~sever:true ~heal:max_int
        ~victims ~n)

(* --- churn: crash-recovery windows --- *)

(* A seeded set of ~n/10 parties each goes dark for a short round window
   and then resumes: the handler closure (the party's state) persists
   untouched, and the executor holds every delivery addressed to a dark
   party on the heap, re-offering it each round until the party is back —
   so recovery is lossless and the resumed party replays exactly the
   prefix a never-churned run would have fed it. *)
let churn =
  make ~name:"churn" (fun ~n ~beta:_ ~rng ~cfg:_ ->
      let victims = Rng.subset rng ~n ~size:(max 1 (n / 10)) in
      let window =
        List.map
          (fun p ->
            let r0 = 2 + Rng.int rng 8 in
            let w = 1 + Rng.int rng 2 in
            (p, r0, r0 + w))
          victims
      in
      {
        Sched.c_name = "churn";
        c_route = (fun ~now:_ ~round:_ ~src:_ ~dst:_ ~lat -> Sched.deliver lat);
        c_down =
          (fun ~now:_ ~round p ->
            List.exists (fun (q, r0, r1) -> q = p && round >= r0 && round < r1) window);
        c_observe = no_observe;
      })

(* --- adaptive corruption (King-Saia) --- *)

let tag_prefixes = [ "supreme"; "coin-"; "sig-"; "aggr-"; "up-" ]

let committee_tag tag =
  List.exists (fun prefix -> String.starts_with ~prefix tag) tag_prefixes

(* The adaptive adversary of the King-Saia line: it watches who carries
   the committee/election traffic (the tags above identify the supreme
   BA, coin, signing and aggregation phases) and, once the election has
   revealed itself, corrupts the heaviest talkers one per round. The
   bounded variant stays inside the cell's corruption budget: the runner
   draws only [static_fraction] of beta statically, and the condition
   upgrades at most the remainder, so the total corrupt set never exceeds
   floor(beta * n). The unbounded variant (teeth) ignores the budget and
   upgrades several parties per round — that must break the protocol. *)
let adaptive_with ~name ~static_fraction ~per_round ~bounded =
  make ~name ~static_fraction (fun ~n ~beta ~rng:_ ~cfg:_ ->
      let total = int_of_float (beta *. float_of_int n) in
      let static = int_of_float (beta *. static_fraction *. float_of_int n) in
      let budget = if bounded then max 0 (total - static) else n in
      let counts = Array.make n 0 in
      let taken = Array.make n false in
      let upgraded = ref 0 in
      {
        Sched.c_name = name;
        c_route = (fun ~now:_ ~round:_ ~src:_ ~dst:_ ~lat -> Sched.deliver lat);
        c_down = no_down;
        c_observe =
          (fun ~now:_ ~round ~msgs ~corrupt ->
            for k = 0 to Inbox.length msgs - 1 do
              if committee_tag (Inbox.tag msgs k) then begin
                let src = Inbox.src msgs k in
                counts.(src) <- counts.(src) + 1
              end
            done;
            if round >= 3 then
              for _ = 1 to per_round do
                if !upgraded < budget then begin
                  (* argmax observed traffic, ties to the lowest id *)
                  let best = ref (-1) in
                  Array.iteri
                    (fun i c ->
                      if (not taken.(i)) && c > 0
                         && (!best < 0 || c > counts.(!best))
                      then best := i)
                    counts;
                  if !best >= 0 then begin
                    taken.(!best) <- true;
                    incr upgraded;
                    corrupt !best
                  end
                end
              done);
      })

let adaptive =
  adaptive_with ~name:"adaptive" ~static_fraction:0.5 ~per_round:1
    ~bounded:true

let adaptive_unbounded =
  adaptive_with ~name:"adaptive-unbounded" ~static_fraction:1.0 ~per_round:8
    ~bounded:false

(* --- combinators --- *)

(* Route verdicts thread left to right: each part sees the latency the
   previous part produced; the first [Defer] wins (a parked message cannot
   be un-parked by a later part). Down is the union, observation fans out,
   and the composite's static fraction is the most conservative of the
   parts' — exactly what an embedded adaptive part budgeted for. *)
let compose parts =
  let name = String.concat "+" (List.map (fun c -> c.name) parts) in
  let static_fraction =
    List.fold_left (fun acc c -> min acc c.static_fraction) 1.0 parts
  in
  {
    name;
    static_fraction;
    prepare =
      (fun ~n ~beta ~seed ~cfg ->
        let instances =
          List.map (fun c -> c.prepare ~n ~beta ~seed ~cfg) parts
        in
        {
          Sched.c_name = name;
          c_route =
            (fun ~now ~round ~src ~dst ~lat ->
              let rec go lat = function
                | [] -> Sched.deliver lat
                | c :: rest -> (
                  match c.Sched.c_route ~now ~round ~src ~dst ~lat with
                  | Sched.Deliver lat -> go lat rest
                  | Sched.Defer _ as d -> d)
              in
              go lat instances);
          c_down =
            (fun ~now ~round p ->
              List.exists (fun c -> c.Sched.c_down ~now ~round p) instances);
          c_observe =
            (fun ~now ~round ~msgs ~corrupt ->
              List.iter
                (fun c -> c.Sched.c_observe ~now ~round ~msgs ~corrupt)
                instances);
        });
  }

(* --- the standard portfolio --- *)

let catalogue () = [ delay; partition; partition_leaves; churn; adaptive ]

(* [find] also resolves the planted teeth variants, which the catalogue
   deliberately omits: they exist to fail. *)
let find s =
  match s with
  | "partition-forever" -> Some partition_forever
  | "adaptive-unbounded" -> Some adaptive_unbounded
  | _ -> List.find_opt (fun c -> name c = s) (catalogue ())
