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
   on, and the robustness experiment exercises exactly that interface.

   Simulation cost: the index tree is built once per run ({!structure}):
   group member arrays, every node's relay committee, each party's relay
   roles and the set of parties whose "elect/down" it accepts. A delivery
   is classified by pointer against the tag strings honest parties send,
   and only another string (a copy or a look-alike) is parsed. An opening
   is decoded once per sender and buffer, and round 2 finds each opener's
   latest commit by group position. Every party still runs every round,
   and ties are still broken in [Hashtbl] order ({!majority}). *)

module Network = Repro_net.Network
module Inbox = Repro_net.Inbox

type result = {
  seed : bytes; (* reference seed: the one the lowest honest root relay holds *)
  party_seed : bytes option array; (* what each party adopted (None: corrupt/no data) *)
  rounds_used : int;
}

let group_size params = max 4 (min params.Params.n params.Params.committee_size)

(* Relay committee of an index-tree node: the first [relay_size] parties of
   its lowest descendant group. *)
let relay_size = 3

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

(* The tags honest parties send: one string each, so a delivery is
   classified by pointer. Any other string, a copy or a look-alike an
   adversary sent, is parsed exactly as a tag always was: [int_of_string_opt]
   reads the level of "elect/up/<level>", so "elect/up/02" is level 2. *)
let commit_tag = "elect/commit"
let open_tag = "elect/open"
let down_tag = "elect/down"
let final_tag = "elect/final"

type kind = Commit | Open | Up of int | Down | Final | Other

let parse_tag tag =
  match String.split_on_char '/' tag with
  | [ "elect"; "commit" ] -> Commit
  | [ "elect"; "open" ] -> Open
  | [ "elect"; "up"; lvl ] -> (
    match int_of_string_opt lvl with Some level -> Up level | None -> Other)
  | [ "elect"; "down" ] -> Down
  | [ "elect"; "final" ] -> Final
  | _ -> Other

(* The index tree of one run, built once: level 1 is the groups, each
   level above has [branching]-fold fewer nodes, [depth] is the root's. *)
type structure = {
  depth : int;
  nodes : int array; (* level -> node count; index 0 unused *)
  members : int array array; (* group -> its parties, ascending *)
  relays : int array array array; (* level -> idx -> relay committee *)
  roles : (int * int) list array; (* party -> nodes (level, idx) it relays, ascending *)
  down_sources : int array array;
      (* party -> the relays of every ancestor of a node it relays: the
         only parties whose "elect/down" it accepts *)
  up_tags : string array; (* level -> "elect/up/<level>", levels 2..depth *)
}

let structure params n =
  let gs = group_size params and b = params.Params.branching in
  let groups = Repro_util.Mathx.ceil_div n gs in
  let depth = Params.height_for ~num_leaves:groups ~branching:b in
  let nodes = Array.make (depth + 1) 0 in
  for level = 1 to depth do
    nodes.(level) <- (if level = 1 then groups else Repro_util.Mathx.ceil_div nodes.(level - 1) b)
  done;
  let members =
    Array.init groups (fun g -> Array.init (min n ((g + 1) * gs) - (g * gs)) (fun k -> (g * gs) + k))
  in
  (* the lowest group under (level, idx) is idx * b^(level - 1) *)
  let relays =
    Array.init (depth + 1) (fun level ->
        if level = 0 then [||]
        else
          let span = Repro_util.Mathx.pow_int b (level - 1) in
          Array.init nodes.(level) (fun idx ->
              let m = members.(idx * span) in
              Array.sub m 0 (min relay_size (Array.length m))))
  in
  let roles = Array.make n [] in
  for level = depth downto 1 do
    for idx = nodes.(level) - 1 downto 0 do
      Array.iter (fun p -> roles.(p) <- (level, idx) :: roles.(p)) relays.(level).(idx)
    done
  done;
  let down_sources =
    Array.map
      (fun rs ->
        let rec ancestors level idx acc =
          if level >= depth then acc
          else
            let up = idx / b in
            ancestors (level + 1) up (Array.to_list relays.(level + 1).(up) @ acc)
        in
        Array.of_list
          (List.sort_uniq Int.compare
             (List.concat_map (fun (level, idx) -> ancestors level idx []) rs)))
      roles
  in
  let up_tags =
    Array.init (depth + 1) (fun level -> if level < 2 then "" else Printf.sprintf "elect/up/%d" level)
  in
  { depth; nodes; members; relays; roles; down_sources; up_tags }

(* Relay committees and down-source sets are ascending. *)
let mem_int x a = Repro_util.Mathx.sorted_index a x >= 0

let classify st tag =
  if tag == commit_tag then Commit
  else if tag == open_tag then Open
  else if tag == down_tag then Down
  else if tag == final_tag then Final
  else begin
    let level = ref 0 in
    for l = 2 to st.depth do
      if tag == st.up_tags.(l) then level := l
    done;
    if !level > 0 then Up !level else parse_tag tag
  end

let run ?adversary net params ~rng =
  Repro_obs.Trace.span ~cat:"elect" "election.run" @@ fun () ->
  let n = Network.n net in
  let st = structure params n in
  let depth = st.depth and b = params.Params.branching in
  let gs = group_size params in
  let relay ~level ~idx = st.relays.(level).(idx) in
  let party_rng = Array.init n (fun p -> Repro_util.Rng.of_label rng ("party-" ^ string_of_int p)) in
  (* Per-party protocol state. *)
  let my_value = Array.init n (fun p -> Repro_util.Rng.bytes party_rng.(p) Repro_crypto.Hashx.kappa_bytes) in
  let my_opening = Array.make n None in
  (* the latest commit from each member of the party's group, by position;
     commits from outside the group (only corrupt parties send them) are
     kept newest first *)
  let group_commits = Array.init n (fun p -> Array.make (Array.length st.members.(p / gs)) None) in
  let other_commits = Array.make n [] in
  let opens_seen = Array.make n [] in
  let group_coin = Array.make n None in
  (* relay state: (party, level, child_idx) -> coins received from that
     child's relay members, Byzantine-filtered by expected sender *)
  let relay_up : (int * int * int, bytes list) Hashtbl.t = Hashtbl.create 64 in
  let my_seed = Array.make n None in
  (* candidate seeds received on the way down, filtered by expected sender *)
  let down_candidates = Array.make n [] in
  let push tbl key v =
    Hashtbl.replace tbl key (v :: (try Hashtbl.find tbl key with Not_found -> []))
  in
  (* majority-or-first over a candidate list *)
  let settle = majority in
  let children ~level ~idx =
    let lo = idx * b in
    let hi = min ((idx + 1) * b) st.nodes.(level - 1) in
    List.init (max 0 (hi - lo)) (fun k -> lo + k)
  in
  (* per-child majority coin, combined over children in index order: the
     Byzantine-robust combination step *)
  let combined_for p ~level ~idx =
    let child_coins =
      List.filter_map
        (fun child ->
          majority (try Hashtbl.find relay_up (p, level, child) with Not_found -> []))
        (children ~level ~idx)
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
  (* An opening is multicast to the sender's whole group as one buffer:
     decode it once, keyed by its sender and found by pointer. *)
  let last_opening = Array.make n (Bytes.empty, None) in
  let opening_of src payload =
    match last_opening.(src) with
    | buf, o when buf == payload -> o
    | _ ->
      let o = Repro_util.Encode.decode payload Repro_crypto.Commit.decode_opening in
      last_opening.(src) <- (payload, o);
      o
  in
  let up_rounds = max 0 (depth - 1) in
  let total_rounds = 2 + 1 + up_rounds + up_rounds + 1 in
  let start_round = Network.round net in
  let send_down p ~level ~idx seed =
    List.iter
      (fun child ->
        Network.send_many net ~src:p ~dsts:(relay ~level:(level - 1) ~idx:child) ~tag:down_tag seed)
      (children ~level ~idx)
  in
  let handler p ~round inbox =
    let round = round - start_round in
    let g = p / gs in
    let lo = g * gs in
    let members = st.members.(g) in
    let relays_group = p - lo < relay_size in
    (* ingest *)
    for i = 0 to Inbox.length inbox - 1 do
      let src = Inbox.src inbox i and payload = Inbox.payload inbox i in
      match classify st (Inbox.tag inbox i) with
      | Commit ->
        if src >= lo && src - lo < Array.length members then
          group_commits.(p).(src - lo) <- Some payload
        else other_commits.(p) <- (src, payload) :: other_commits.(p)
      | Open -> (
        match opening_of src payload with
        | Some o -> opens_seen.(p) <- (src, o) :: opens_seen.(p)
        | None -> ())
      | Up level -> (
        (* levels above the root are never read *)
        match dec_up payload with
        | Some (child, coin)
          when level >= 2 && level <= depth
               && child >= 0
               && child < st.nodes.(level - 1)
               (* Byzantine filter: only the child's relay members may
                  speak for it *)
               && mem_int src (relay ~level:(level - 1) ~idx:child) ->
          push relay_up (p, level, child) coin
        | _ -> ())
      | Down ->
        (* accept only from the relay of a parent of a node p relays *)
        if mem_int src st.down_sources.(p) then
          down_candidates.(p) <- payload :: down_candidates.(p)
      | Final ->
        if mem_int src (relay ~level:1 ~idx:g) then
          down_candidates.(p) <- payload :: down_candidates.(p)
      | Other -> ()
    done;
    (* act *)
    if round = 0 then begin
      let c, o = Repro_crypto.Commit.commit party_rng.(p) my_value.(p) in
      my_opening.(p) <- Some o;
      Network.send_many net ~src:p ~dsts:members ~tag:commit_tag c
    end
    else if round = 1 then begin
      match my_opening.(p) with
      | Some o ->
        let payload = Repro_util.Encode.to_bytes (fun b -> Repro_crypto.Commit.encode_opening b o) in
        Network.send_many net ~src:p ~dsts:members ~tag:open_tag payload
      | None -> ()
    end
    else if round = 2 then begin
      (* Derive group coin from consistent (commit, open) pairs: each
         opening against its sender's latest commit. *)
      let latest src =
        if src >= lo && src - lo < Array.length members then group_commits.(p).(src - lo)
        else List.assoc_opt src other_commits.(p)
      in
      let contributions =
        List.filter_map
          (fun (src, (o : Repro_crypto.Commit.opening)) ->
            match latest src with
            | Some c when Repro_crypto.Commit.verify c o -> Some (src, o.value)
            | _ -> None)
          opens_seen.(p)
        |> List.sort_uniq (fun (a, x) (b, y) ->
               match Int.compare a b with 0 -> Bytes.compare x y | c -> c)
      in
      let coin =
        Repro_crypto.Hashx.hash ~tag:"election-group"
          (List.concat_map (fun (src, v) -> [ Bytes.of_string (string_of_int src); v ]) contributions)
      in
      group_coin.(p) <- Some coin;
      (* Group relay members push the coin to the parent relay. *)
      if relays_group && depth >= 2 then
        Network.send_many net ~src:p
          ~dsts:(relay ~level:2 ~idx:(g / b))
          ~tag:st.up_tags.(2) (enc_up ~child:g coin)
      else if depth = 1 then my_seed.(p) <- Some coin
    end
    else if round >= 3 && round < 3 + up_rounds - 1 then begin
      (* Relay at level round-1 combines per-child majorities and forwards. *)
      let level = round - 1 in
      List.iter
        (fun (l, idx) ->
          if l = level then
            Network.send_many net ~src:p
              ~dsts:(relay ~level:(level + 1) ~idx:(idx / b))
              ~tag:st.up_tags.(level + 1)
              (enc_up ~child:idx (combined_for p ~level ~idx)))
        st.roles.(p)
    end
    else if round = 2 + up_rounds && depth >= 2 then begin
      (* Root relay fixes the seed and starts dissemination. *)
      if mem_int p (relay ~level:depth ~idx:0) then begin
        let seed = combined_for p ~level:depth ~idx:0 in
        my_seed.(p) <- Some seed;
        send_down p ~level:depth ~idx:0 seed
      end
    end
    else if round > 2 + up_rounds && round < 2 + up_rounds + up_rounds then begin
      (* Intermediate relays adopt the majority candidate and forward down. *)
      let level = depth - (round - (2 + up_rounds)) in
      List.iter
        (fun (l, idx) ->
          if l = level then begin
            (match settle down_candidates.(p) with
            | Some seed -> my_seed.(p) <- Some seed
            | None -> ());
            match my_seed.(p) with
            | Some seed when level >= 2 -> send_down p ~level ~idx seed
            | _ -> ()
          end)
        st.roles.(p)
    end
    else if round = 2 + up_rounds + up_rounds then begin
      (* Group relays adopt the majority candidate and hand it to their
         group members. *)
      if relays_group then begin
        (match settle down_candidates.(p) with
        | Some seed -> my_seed.(p) <- Some seed
        | None -> ());
        match my_seed.(p) with
        | Some seed -> Network.send_many net ~src:p ~dsts:members ~tag:final_tag seed
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
      my_seed.(p) <- settle down_candidates.(p)
  done;
  let rounds_used = Network.round net - start_round in
  (* Reference seed: lowest honest root-relay member's seed; fall back to
     majority of party seeds. *)
  let root_relay = Array.to_list (relay ~level:depth ~idx:0) in
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
