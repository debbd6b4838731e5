(* Composable Byzantine adversary strategies over the synchronous network.

   Design: a strategy is a *recipe* (name + prepare function); [instantiate]
   derives a private SplitMix generator from (seed, name), runs [prepare]
   once to build per-instance state, and wraps every send in a checked
   [emit] so strategies can only speak for corrupt parties. Combinators
   wrap either the step (from_round) or the emit (budgeted), so they nest
   freely and the composite stays deterministic: every sub-strategy draws
   from its own labelled child generator, never from a sibling's. *)

module Rng = Repro_util.Rng
module Counters = Repro_obs.Counters
module Network = Repro_net.Network
module Inbox = Repro_net.Inbox
module Attacks = Repro_aetree.Attacks
module Params = Repro_aetree.Params
module Tree = Repro_aetree.Tree

type env = {
  net : Network.t;
  round : int;
  honest_staged : Inbox.t;
  emit : src:int -> dst:int -> tag:string -> bytes -> unit;
}

type step = env -> unit

type t = { name : string; prepare : Rng.t -> step }

let name t = t.name
let make ~name prepare = { name; prepare }

(* Mixes the recipe's name into the seed so composed siblings with the
   same numeric seed still draw independent streams. *)
let seed_of ~seed name =
  let h = Hashtbl.hash name in
  (seed * 1_000_003) lxor h

let instantiate t ~seed =
  let rng = Rng.create (seed_of ~seed t.name) in
  let step = t.prepare rng in
  let c_msgs = Counters.make ("adv.msgs." ^ t.name) in
  {
    Network.adv_name = t.name;
    adv_step =
      (fun net ~round ~honest_staged ->
        let emit ~src ~dst ~tag payload =
          if
            src >= 0 && src < Network.n net
            && Network.is_corrupt net src
            && dst >= 0
            && dst < Network.n net
          then begin
            Counters.bump c_msgs;
            Network.send net ~src ~dst ~tag payload
          end
        in
        step { net; round; honest_staged; emit });
  }

(* --- primitives --- *)

let silent = make ~name:"silent" (fun _rng _env -> ())

(* Round-robin over corrupt parties so traffic volume does not scale with
   the corrupt-set size; [rng] only picks payload contents. *)
let corrupt_src env k =
  match Network.corrupt_parties env.net with
  | [] -> None
  | cs -> Some (List.nth cs (k mod List.length cs))

(* The distinct tags among the first [limit] honest sends, sorted. *)
let observed_tags ?(limit = 4) env =
  let v = env.honest_staged in
  List.sort_uniq compare (List.init (min limit (Inbox.length v)) (Inbox.tag v))

let equivocate =
  make ~name:"equivocate" (fun rng env ->
      let honest = Network.honest_parties env.net in
      let half = (List.length honest + 1) / 2 in
      let a = Rng.bytes rng 8 and b = Rng.bytes rng 8 in
      List.iteri
        (fun k tag ->
          match corrupt_src env k with
          | None -> ()
          | Some src ->
            (* same tag, divergent payloads to disjoint honest halves *)
            List.iteri
              (fun i dst ->
                env.emit ~src ~dst ~tag (if i < half then a else b))
              honest)
        (observed_tags env))

let replay_chaff ?(per_round = 40) () =
  make ~name:"replay-chaff" (fun rng env ->
      let n = Network.n env.net and v = env.honest_staged in
      for k = 0 to min per_round (Inbox.length v) - 1 do
        match corrupt_src env k with
        | None -> ()
        | Some src ->
          (* replay the honest payload at a random destination... *)
          env.emit ~src ~dst:(Rng.int rng n) ~tag:(Inbox.tag v k) (Inbox.payload v k);
          (* ...and undecodable junk under the same tag *)
          env.emit ~src ~dst:(Rng.int rng n) ~tag:(Inbox.tag v k) (Rng.bytes rng 24)
      done)

let withhold ~victims =
  let is_victim = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace is_victim p ()) victims;
  make ~name:"withhold" (fun rng env ->
      let fed =
        List.filter
          (fun p -> not (Hashtbl.mem is_victim p))
          (Network.honest_parties env.net)
      in
      match fed with
      | [] -> ()
      | _ ->
        (* chatty toward non-victims, total silence toward the victim set:
           the corrupt parties split the network's view along the victim
           boundary *)
        let v = env.honest_staged in
        for k = 0 to min 40 (Inbox.length v) - 1 do
          match corrupt_src env k with
          | None -> ()
          | Some src ->
            let dst = List.nth fed (Rng.int rng (List.length fed)) in
            env.emit ~src ~dst ~tag:(Inbox.tag v k) (Inbox.payload v k)
        done)

let bad_aggregate =
  make ~name:"bad-aggregate" (fun rng env ->
      let interesting tag =
        String.starts_with ~prefix:"sig-" tag || String.starts_with ~prefix:"up-" tag
      in
      let budget = ref 30 and v = env.honest_staged in
      for k = 0 to Inbox.length v - 1 do
        let tag = Inbox.tag v k in
        if !budget > 0 && interesting tag then
          match corrupt_src env k with
          | None -> ()
          | Some src ->
            decr budget;
            let dst = Inbox.dst v k and payload = Inbox.payload v k in
            (* duplicate-signature injection: the same encoded signature
               arrives twice at the aggregating committee member *)
            env.emit ~src ~dst ~tag payload;
            (* malformed aggregate: one flipped byte *)
            let len = Bytes.length payload in
            if len > 0 then begin
              let bad = Bytes.copy payload in
              let pos = Rng.int rng len in
              Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor 0x41));
              env.emit ~src ~dst ~tag bad
            end;
            (* oversized/duplicated encoding: the payload glued to itself *)
            env.emit ~src ~dst ~tag (Bytes.cat payload payload)
      done)

(* --- combinators --- *)

let compose parts =
  let name = String.concat "+" (List.map (fun p -> p.name) parts) in
  make ~name (fun rng ->
      let steps =
        List.mapi
          (fun i p ->
            p.prepare (Rng.of_label rng (Printf.sprintf "%d:%s" i p.name)))
          parts
      in
      fun env -> List.iter (fun step -> step env) steps)

let from_round r inner =
  make
    ~name:(Printf.sprintf "%s@%d" inner.name r)
    (fun rng ->
      let step = inner.prepare rng in
      fun env -> if env.round >= r then step env)

let budgeted k inner =
  make
    ~name:(Printf.sprintf "%s<=%d" inner.name k)
    (fun rng ->
      let step = inner.prepare rng in
      fun env ->
        let left = ref k in
        let emit ~src ~dst ~tag payload =
          if !left > 0 then begin
            decr left;
            env.emit ~src ~dst ~tag payload
          end
        in
        step { env with emit })

(* --- tree-aware targeting --- *)

(* Mirrors the protocol's own public-setup derivation (Balanced_ba.make_ctx):
   the slot assignment is public, so a strategy may aim at the parties
   whose corruption would hurt the tree most. E14's setup-aware corrupt
   set (Runner.corrupt_by_strategy) is this set; the catalogue repurposes
   it as a victim set to starve. Committees are elected post-corruption,
   so only assignment-derived information is used. *)
let tree_victims ~n ~seed ~strategy ~budget =
  let rng = Rng.create seed in
  let params = Params.default n in
  let slot_party = Tree.assignment params (Rng.of_label rng "assignment") in
  let tree =
    Tree.build params ~slot_party ~committee_rng:(Rng.of_label rng "provisional")
  in
  Attacks.corrupt_set tree ~strategy ~budget ~rng:(Rng.of_label rng "attack")

(* --- the standard portfolio --- *)

let catalogue ~n ~seed =
  [
    silent;
    equivocate;
    replay_chaff ();
    withhold
      ~victims:
        (tree_victims ~n ~seed ~strategy:Attacks.Kill_leaves
           ~budget:(max 1 (n / 8)));
    bad_aggregate;
    (* combinator showcases: a rate-limited kitchen-sink composite, and a
       bad-aggregate wave that waits out the election phase *)
    budgeted 64 (compose [ equivocate; replay_chaff () ]);
    from_round 8 bad_aggregate;
  ]

let find ~n ~seed s =
  List.find_opt (fun t -> name t = s) (catalogue ~n ~seed)
