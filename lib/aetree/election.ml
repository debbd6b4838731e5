(* Distributed generation of the tree seed: the substrate standing in for
   King et al.'s scalable leader election [48] (see DESIGN.md substitutions).

   The BA protocol (Fig. 3) works in the f_ae-comm-hybrid model, where the
   functionality's first invocation establishes the communication tree. We
   realize the seed that determines the tree by an explicit polylog-per-party
   protocol, so that establishing the tree is charged real messages, rounds
   and bytes:

     1. parties are partitioned by index into groups of size ~committee_size;
     2. each group runs commit-then-reveal randomness generation internally;
     3. group coins percolate up an index tree of branching [params.branching]
        through small relay committees (hash-combining at each level);
     4. the root seed is disseminated back down the same relay structure.

   Every step is point-to-point messages over the simulated network. The
   protocol tolerates silent/garbage corrupt parties (coins of groups with
   honest members remain unpredictable to a static adversary, which fixed
   its corruptions before any coin was revealed). Full-information security
   against seed-grinding adversaries — the hard part of [48] — is *not*
   reproduced; the functionality's contract (adversary may influence, even
   choose, the tree subject to Defs. 2.3/3.4) is what the layer above relies
   on, and the robustness experiment exercises exactly that interface. *)

module Network = Repro_net.Network
module Inbox = Repro_net.Inbox

type result = {
  seed : bytes; (* reference seed: the one the lowest honest root relay holds *)
  party_seed : bytes option array; (* what each party adopted (None: corrupt/no data) *)
  rounds_used : int;
}

let group_size params = max 4 (min params.Params.n params.Params.committee_size)

let num_groups params n = Repro_util.Mathx.ceil_div n (group_size params)

let group_of params p = p / group_size params

let group_members params n g =
  let lo = g * group_size params in
  let hi = min n (lo + group_size params) in
  List.init (hi - lo) (fun k -> lo + k)

(* Relay committee of an index-tree node: the first [relay_size] parties of
   its lowest descendant group. *)
let relay_size = 3

(* Index tree over groups: level 1 = groups, branching = params.branching. *)
let levels_of params n =
  Params.height_for ~num_leaves:(num_groups params n) ~branching:params.Params.branching

let nodes_at params n ~level =
  let rec go l count =
    if l = level then count
    else go (l + 1) (Repro_util.Mathx.ceil_div count params.Params.branching)
  in
  go 1 (num_groups params n)

let lowest_group params n ~level ~idx =
  let rec go level idx = if level = 1 then idx else go (level - 1) (idx * params.Params.branching) in
  ignore n;
  go level idx

let relay params n ~level ~idx =
  let g = lowest_group params n ~level ~idx in
  let members = group_members params n g in
  List.filteri (fun i _ -> i < relay_size) members

let combine_coins coins =
  Repro_crypto.Hashx.hash ~tag:"election-combine" coins

(* Majority over byte strings; None when empty. *)
let majority = function
  | [] -> None
  | values ->
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun v ->
        let k = Bytes.to_string v in
        Hashtbl.replace tbl k (1 + try Hashtbl.find tbl k with Not_found -> 0))
      values;
    let best = ref None in
    Hashtbl.iter
      (fun k c ->
        match !best with
        | Some (_, c') when c' >= c -> ()
        | _ -> best := Some (k, c))
      tbl;
    Option.map (fun (k, _) -> Bytes.of_string k) !best

let run ?adversary net params ~rng =
  Repro_obs.Trace.span ~cat:"elect" "election.run" @@ fun () ->
  let n = Network.n net in
  let depth = levels_of params n in
  let party_rng = Array.init n (fun p -> Repro_util.Rng.of_label rng (Printf.sprintf "party-%d" p)) in
  (* Per-party protocol state. *)
  let my_value = Array.init n (fun p -> Repro_util.Rng.bytes party_rng.(p) Repro_crypto.Hashx.kappa_bytes) in
  let my_opening = Array.make n None in
  let commits_seen : (int, (int * bytes) list) Hashtbl.t = Hashtbl.create 64 in
  let opens_seen : (int, (int * Repro_crypto.Commit.opening) list) Hashtbl.t = Hashtbl.create 64 in
  let group_coin = Array.make n None in
  (* relay state: (party, level, child_idx) -> coins received from that
     child's relay members, Byzantine-filtered by expected sender *)
  let relay_up : (int * int * int, bytes list) Hashtbl.t = Hashtbl.create 64 in
  let my_seed = Array.make n None in
  (* candidate seeds received on the way down, filtered by expected sender *)
  let down_candidates : (int, bytes list) Hashtbl.t = Hashtbl.create 64 in
  let push tbl key v =
    Hashtbl.replace tbl key (v :: (try Hashtbl.find tbl key with Not_found -> []))
  in
  (* majority-or-first over a candidate list *)
  let settle = majority in
  (* per-child majority coin, combined over children in index order: the
     Byzantine-robust combination step *)
  let combined_for p ~level ~idx =
    let below = nodes_at params n ~level:(level - 1) in
    let lo = idx * params.Params.branching in
    let hi = min ((idx + 1) * params.Params.branching) below in
    let child_coins =
      List.filter_map
        (fun child ->
          majority (try Hashtbl.find relay_up (p, level, child) with Not_found -> []))
        (List.init (max 0 (hi - lo)) (fun k -> lo + k))
    in
    combine_coins child_coins
  in
  let enc_up ~child coin =
    Repro_util.Encode.to_bytes (fun b ->
        Repro_util.Encode.varint b child;
        Repro_util.Encode.bytes b coin)
  in
  let dec_up payload =
    Repro_util.Encode.decode payload (fun src ->
        let child = Repro_util.Encode.r_varint src in
        let coin = Repro_util.Encode.r_bytes src in
        (child, coin))
  in
  (* Rounds:
     0: commit broadcast within group
     1: open broadcast within group
     2: group relay members derive coin, send to parent relay (level 2)
     2+k (k=1..depth-2): level-(k+1) relays forward to level-(k+2)
     then dissemination down: depth-1 rounds relay->child relay, final round
     group relay -> group members. *)
  let up_rounds = max 0 (depth - 1) in
  let total_rounds = 2 + 1 + up_rounds + up_rounds + 1 in
  let start_round = Network.round net in
  let handler p ~round inbox =
    let round = round - start_round in
    let g = group_of params p in
    let members = group_members params n g in
    (* ingest *)
    for i = 0 to Inbox.length inbox - 1 do
      let src = Inbox.src inbox i and payload = Inbox.payload inbox i in
      match String.split_on_char '/' (Inbox.tag inbox i) with
      | [ "elect"; "commit" ] -> push commits_seen p (src, payload)
      | [ "elect"; "open" ] -> (
        match Repro_util.Encode.decode payload Repro_crypto.Commit.decode_opening with
        | Some o -> push opens_seen p (src, o)
        | None -> ())
      | [ "elect"; "up"; lvl ] -> (
        match (int_of_string_opt lvl, dec_up payload) with
        | Some level, Some (child, coin)
          when level >= 2
               && child >= 0
               && child < nodes_at params n ~level:(level - 1)
               (* Byzantine filter: only the child's relay members may
                  speak for it *)
               && List.mem src (relay params n ~level:(level - 1) ~idx:child) ->
          push relay_up (p, level, child) coin
        | _ -> ())
      | [ "elect"; "down" ] ->
        (* accept only from the relay of a parent of a node p relays *)
        let acceptable =
          let rec check level idx =
            level < depth
            && (List.mem src
                  (relay params n ~level:(level + 1) ~idx:(idx / params.Params.branching))
               || check (level + 1) (idx / params.Params.branching))
          in
          (* p relays for the lowest-group chain containing its group *)
          List.exists
            (fun level ->
              let count = nodes_at params n ~level in
              let rec scan idx =
                idx < count
                && ((List.mem p (relay params n ~level ~idx) && check level idx)
                   || scan (idx + 1))
              in
              scan 0)
            (List.init depth (fun k -> k + 1))
        in
        if acceptable then push down_candidates p payload
      | [ "elect"; "final" ] ->
        if List.mem src (relay params n ~level:1 ~idx:g) then
          push down_candidates p payload
      | _ -> ()
    done;
    (* act *)
    if round = 0 then begin
      let c, o = Repro_crypto.Commit.commit party_rng.(p) my_value.(p) in
      my_opening.(p) <- Some o;
      Network.send_many net ~src:p ~dsts:(Array.of_list members) ~tag:"elect/commit" c
    end
    else if round = 1 then begin
      match my_opening.(p) with
      | Some o ->
        let payload = Repro_util.Encode.to_bytes (fun b -> Repro_crypto.Commit.encode_opening b o) in
        Network.send_many net ~src:p ~dsts:(Array.of_list members) ~tag:"elect/open" payload
      | None -> ()
    end
    else if round = 2 then begin
      (* Derive group coin from consistent (commit, open) pairs. *)
      let commits = try Hashtbl.find commits_seen p with Not_found -> [] in
      let opens = try Hashtbl.find opens_seen p with Not_found -> [] in
      let contributions =
        List.filter_map
          (fun (src, (o : Repro_crypto.Commit.opening)) ->
            match List.assoc_opt src commits with
            | Some c when Repro_crypto.Commit.verify c o -> Some (src, o.value)
            | _ -> None)
          opens
        |> List.sort_uniq compare
      in
      let coin =
        Repro_crypto.Hashx.hash ~tag:"election-group"
          (List.concat_map (fun (src, v) -> [ Bytes.of_string (string_of_int src); v ]) contributions)
      in
      group_coin.(p) <- Some coin;
      (* Group relay members push the coin to the parent relay. *)
      if List.mem p (relay params n ~level:1 ~idx:g) && depth >= 2 then begin
        let parent = g / params.Params.branching in
        Network.send_many net ~src:p
          ~dsts:(Array.of_list (relay params n ~level:2 ~idx:parent))
          ~tag:"elect/up/2" (enc_up ~child:g coin)
      end
      else if depth = 1 then my_seed.(p) <- Some coin
    end
    else if round >= 3 && round < 3 + up_rounds - 1 then begin
      (* Relay at level round-1 combines per-child majorities and forwards. *)
      let level = round - 1 in
      let count = nodes_at params n ~level in
      for idx = 0 to count - 1 do
        if List.mem p (relay params n ~level ~idx) then begin
          let combined = combined_for p ~level ~idx in
          let parent = idx / params.Params.branching in
          Network.send_many net ~src:p
            ~dsts:(Array.of_list (relay params n ~level:(level + 1) ~idx:parent))
            ~tag:(Printf.sprintf "elect/up/%d" (level + 1))
            (enc_up ~child:idx combined)
        end
      done
    end
    else if round = 2 + up_rounds && depth >= 2 then begin
      (* Root relay fixes the seed and starts dissemination. *)
      if List.mem p (relay params n ~level:depth ~idx:0) then begin
        let seed = combined_for p ~level:depth ~idx:0 in
        my_seed.(p) <- Some seed;
        List.iter
          (fun child ->
            Network.send_many net ~src:p
              ~dsts:(Array.of_list (relay params n ~level:(depth - 1) ~idx:child))
              ~tag:"elect/down" seed)
          (if depth >= 2 then
             let below = nodes_at params n ~level:(depth - 1) in
             let lo = 0 in
             let hi = min params.Params.branching below in
             List.init (hi - lo) (fun k -> lo + k)
           else [])
      end
    end
    else if round > 2 + up_rounds && round < 2 + up_rounds + up_rounds then begin
      (* Intermediate relays adopt the majority candidate and forward down. *)
      let level = depth - (round - (2 + up_rounds)) in
      if level >= 1 then begin
        let count = nodes_at params n ~level in
        for idx = 0 to count - 1 do
          if List.mem p (relay params n ~level ~idx) then begin
            (match settle (try Hashtbl.find down_candidates p with Not_found -> []) with
            | Some seed -> my_seed.(p) <- Some seed
            | None -> ());
            match my_seed.(p) with
            | Some seed when level >= 2 ->
              let below = nodes_at params n ~level:(level - 1) in
              let lo = idx * params.Params.branching in
              let hi = min ((idx + 1) * params.Params.branching) below in
              List.iter
                (fun child ->
                  Network.send_many net ~src:p
                    ~dsts:(Array.of_list (relay params n ~level:(level - 1) ~idx:child))
                    ~tag:"elect/down" seed)
                (List.init (max 0 (hi - lo)) (fun k -> lo + k))
            | _ -> ()
          end
        done
      end
    end
    else if round = 2 + up_rounds + up_rounds then begin
      (* Group relays adopt the majority candidate and hand it to their
         group members. *)
      if List.mem p (relay params n ~level:1 ~idx:g) then begin
        (match settle (try Hashtbl.find down_candidates p with Not_found -> []) with
        | Some seed -> my_seed.(p) <- Some seed
        | None -> ());
        match my_seed.(p) with
        | Some seed -> Network.send_many net ~src:p ~dsts:(Array.of_list members) ~tag:"elect/final" seed
        | None -> ()
      end
    end
  in
  let handlers =
    Array.init n (fun p -> if Network.is_honest net p then Some (handler p) else None)
  in
  let everyone = Network.everyone net in
  Network.run_slices net ?adversary ~rounds:(total_rounds + 1)
    ~extra:(fun ~round:_ -> everyone)
    (Array.get handlers);
  (* non-relay parties adopt the majority of the 'final' candidates *)
  for p = 0 to n - 1 do
    if Network.is_honest net p && my_seed.(p) = None then
      my_seed.(p) <- settle (try Hashtbl.find down_candidates p with Not_found -> [])
  done;
  let rounds_used = Network.round net - start_round in
  (* Reference seed: lowest honest root-relay member's seed; fall back to
     majority of party seeds. *)
  let root_relay = relay params n ~level:depth ~idx:0 in
  let reference =
    match
      List.find_opt (fun p -> Network.is_honest net p && my_seed.(p) <> None) root_relay
    with
    | Some p -> Option.get my_seed.(p)
    | None -> (
      match majority (List.filter_map (fun s -> s) (Array.to_list my_seed)) with
      | Some s -> s
      | None -> Repro_crypto.Hashx.hash_string ~tag:"election-fallback" "empty")
  in
  { seed = reference; party_seed = my_seed; rounds_used }
