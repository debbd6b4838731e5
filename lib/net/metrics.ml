(* Per-party communication metering.

   This module measures exactly the quantities the paper's theorems bound:
   bits communicated per party (sent + received), message counts, locality
   (number of distinct peers a party exchanges messages with), and round
   count. Reports are normally restricted to honest parties: the adversary
   can always inflate its own parties' numbers. *)

(* The per-message hot path is flat: per-party counters are int arrays,
   and a party's peer set is one row of ceil(n/8) bytes, one bit per
   peer, with its cardinality kept in an int array. Adding a peer is one
   byte test and set, with no allocation (a persistent set would
   allocate a rebalanced spine per insert — measurably the top cost at n
   in the thousands). A row is allocated at its party's first charge, so
   silent parties cost nothing. *)
module Event = Repro_obs.Event

(* The charges since the last round close, kept only for a network with
   subscribers (its [Round_end] carries them). A party is touched at its
   first charge of the round, when its round peer count is still 0. *)
type round_state = {
  r_bytes : int array;
  r_rows : Bytes.t array; (* this round's peers, per party *)
  r_peers : int array; (* their counts *)
  r_touched : int array; (* [0, r_ntouched), in first-charge order *)
  mutable r_ntouched : int;
  mutable r_sent : int; (* bytes staged this round, all sources *)
}

type t = {
  n : int;
  row_len : int; (* bytes per peer row: ceil(n/8) *)
  bytes_sent : int array;
  bytes_recv : int array;
  msgs_sent : int array;
  msgs_recv : int array;
  rows : Bytes.t array; (* peers sent to or received from, per party *)
  peers : int array; (* their counts *)
  mutable rounds : int;
  rnd : round_state option;
  by_group : (string, int ref) Hashtbl.t; (* sent bytes per tag group *)
  cell_of_tag : (string, int ref) Hashtbl.t; (* tag -> its group's cell *)
  mutable last_tag : string; (* the previous send's tag ... *)
  mutable last_cell : int ref; (* ... and its group's cell *)
}

(* Add [peer] to party [p]'s row in [rows] (allocated here at [p]'s
   first charge; [Bytes.empty] before), counting it in [counts] if new. *)
let add_peer ~row_len rows counts p peer =
  let row =
    let r = rows.(p) in
    if Bytes.length r > 0 then r
    else begin
      let r = Bytes.make row_len '\000' in
      rows.(p) <- r;
      r
    end
  in
  let i = peer lsr 3 and bit = 1 lsl (peer land 7) in
  let byte = Char.code (Bytes.get row i) in
  if byte land bit = 0 then begin
    Bytes.set row i (Char.unsafe_chr (byte lor bit));
    counts.(p) <- counts.(p) + 1
  end

let charge_round ~row_len r p peer size =
  if r.r_peers.(p) = 0 then begin
    r.r_touched.(r.r_ntouched) <- p;
    r.r_ntouched <- r.r_ntouched + 1
  end;
  r.r_bytes.(p) <- r.r_bytes.(p) + size;
  add_peer ~row_len r.r_rows r.r_peers p peer

let create ~per_round n =
  let rnd =
    if per_round then
      Some
        { r_bytes = Array.make n 0; r_rows = Array.make n Bytes.empty;
          r_peers = Array.make n 0; r_touched = Array.make n 0; r_ntouched = 0;
          r_sent = 0 }
    else None
  in
  { n; row_len = (n + 7) / 8; bytes_sent = Array.make n 0; bytes_recv = Array.make n 0;
    msgs_sent = Array.make n 0; msgs_recv = Array.make n 0;
    rows = Array.make n Bytes.empty; peers = Array.make n 0; rounds = 0; rnd;
    by_group = Hashtbl.create 32; cell_of_tag = Hashtbl.create 64;
    (* a fresh string: physically equal to no tag ever sent *)
    last_tag = String.make 1 '\000'; last_cell = ref 0 }

(* Tag grouping for the per-phase breakdown: keep the part before '/',
   stripped of trailing digits and instance labels, so "aggr-ba-2/15",
   "aggr-ba-3/4" both land in "aggr-ba". The aecomm dissemination keeps its
   second segment's prefix ("aecomm/pair-ba" -> "aecomm/pair"). *)
let tag_group tag =
  let strip_digits s =
    let n = String.length s in
    let rec last i =
      if i > 0 && (match s.[i - 1] with '0' .. '9' | '-' -> true | _ -> false)
      then last (i - 1)
      else i
    in
    String.sub s 0 (last n)
  in
  match String.index_opt tag '/' with
  | None -> strip_digits tag
  | Some i ->
    let head = String.sub tag 0 i in
    if head = "aecomm" || head = "elect" then
      let rest = String.sub tag (i + 1) (String.length tag - i - 1) in
      let rest =
        match String.index_opt rest '/' with
        | Some j -> String.sub rest 0 j
        | None -> rest
      in
      head ^ "/" ^ strip_digits rest
    else strip_digits head

let note_send t ~src ~dst ~tag ~size =
  t.bytes_sent.(src) <- t.bytes_sent.(src) + size;
  t.msgs_sent.(src) <- t.msgs_sent.(src) + 1;
  add_peer ~row_len:t.row_len t.rows t.peers src dst;
  (match t.rnd with
  | None -> ()
  | Some r ->
    r.r_sent <- r.r_sent + size;
    charge_round ~row_len:t.row_len r src dst size);
  (* One lookup per send: each tag maps straight to its group's byte cell,
     and engine sends reuse interned tags, so a run of sends with the
     physically same tag skips even that. A group is registered in
     [by_group] at the first send of its first tag, the insertion order
     [tag_breakdown]'s fold sees. *)
  let cell =
    if tag == t.last_tag then t.last_cell
    else begin
      let cell =
        match Hashtbl.find t.cell_of_tag tag with
        | c -> c
        | exception Not_found ->
          let g = tag_group tag in
          let c =
            match Hashtbl.find t.by_group g with
            | c -> c
            | exception Not_found ->
              let c = ref 0 in
              Hashtbl.add t.by_group g c;
              c
          in
          Hashtbl.add t.cell_of_tag tag c;
          c
      in
      t.last_tag <- tag;
      t.last_cell <- cell;
      cell
    end
  in
  cell := !cell + size

let note_recv t ~src ~dst ~size =
  t.bytes_recv.(dst) <- t.bytes_recv.(dst) + size;
  t.msgs_recv.(dst) <- t.msgs_recv.(dst) + 1;
  add_peer ~row_len:t.row_len t.rows t.peers dst src;
  match t.rnd with None -> () | Some r -> charge_round ~row_len:t.row_len r dst src size

let note_round t = t.rounds <- t.rounds + 1

let rounds t = t.rounds

let party_bytes t i = t.bytes_sent.(i) + t.bytes_recv.(i)
let party_bytes_sent t i = t.bytes_sent.(i)
let party_msgs_sent t i = t.msgs_sent.(i)
let party_msgs_recv t i = t.msgs_recv.(i)

let party_locality t i = t.peers.(i)

let close_round t ~round ~scheduled : Event.round_summary =
  match t.rnd with
  | None -> invalid_arg "Metrics.close_round: created without ~per_round"
  | Some r ->
    let touched = Array.sub r.r_touched 0 r.r_ntouched in
    Array.sort Int.compare touched;
    let charged =
      Array.map
        (fun p ->
          let c =
            { Event.party = p; round_bits = 8 * r.r_bytes.(p); round_peers = r.r_peers.(p);
              total_bits = 8 * party_bytes t p; total_peers = party_locality t p }
          in
          r.r_bytes.(p) <- 0;
          r.r_peers.(p) <- 0;
          Bytes.fill r.r_rows.(p) 0 t.row_len '\000';
          c)
        touched
    in
    let summary = { Event.round; scheduled; sent_bits = 8 * r.r_sent; charged } in
    r.r_ntouched <- 0;
    r.r_sent <- 0;
    summary

(* A communication report over a subset of parties (normally the honest
   set). *)
type report = {
  max_bytes : int; (* max over parties of sent+received bytes *)
  mean_bytes : float;
  p50_bytes : float; (* median per-party bytes *)
  p95_bytes : float;
  p99_bytes : float;
  stddev_bytes : float; (* per-party spread: load-balance quality *)
  total_bytes : int; (* over the whole network, all parties *)
  max_msgs_sent : int;
  max_locality : int;
  mean_locality : float;
  rounds : int;
}

(* An empty selection (e.g. every party corrupt) yields zero per-party
   aggregates: [Mathx]'s statistics are 0 on an empty list. *)
let report ?(include_party = fun _ -> true) t =
  let parties = List.filter include_party (List.init t.n Fun.id) in
  let bytes = List.map (party_bytes t) parties in
  let locs = List.map (party_locality t) parties in
  let fbytes = List.map float_of_int bytes in
  {
    max_bytes = List.fold_left max 0 bytes;
    mean_bytes = Repro_util.Mathx.mean fbytes;
    p50_bytes = Repro_util.Mathx.percentile 0.5 fbytes;
    p95_bytes = Repro_util.Mathx.percentile 0.95 fbytes;
    p99_bytes = Repro_util.Mathx.percentile 0.99 fbytes;
    stddev_bytes = Repro_util.Mathx.stddev fbytes;
    total_bytes = Array.fold_left ( + ) 0 t.bytes_sent;
    max_msgs_sent =
      List.fold_left (fun acc i -> max acc (party_msgs_sent t i)) 0 parties;
    max_locality = List.fold_left max 0 locs;
    mean_locality = Repro_util.Mathx.mean (List.map float_of_int locs);
    rounds = t.rounds;
  }

(* Sent bytes per tag group, largest first: the per-phase cost breakdown. *)
let tag_breakdown t =
  Hashtbl.fold (fun g c acc -> (g, !c) :: acc) t.by_group []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* A breakdown as a flat JSON object. Keys are re-sorted by name so the
   rendering is a stable function of the content, not of insertion order. *)
let breakdown_json bd =
  Repro_util.Json.of_counts (List.sort (fun (a, _) (b, _) -> compare a b) bd)

let pp_breakdown ppf bd =
  let width =
    List.fold_left (fun acc (g, _) -> max acc (String.length g)) 10 bd
  in
  let total = List.fold_left (fun acc (_, b) -> acc + b) 0 bd in
  Format.fprintf ppf "  %-*s %12s %7s@." width "phase" "bytes" "share";
  List.iter
    (fun (g, b) ->
      Format.fprintf ppf "  %-*s %12d %6.1f%%@." width g b
        (100. *. float_of_int b /. float_of_int (max 1 total)))
    bd;
  Format.fprintf ppf "  %-*s %12d@." width "total" total
