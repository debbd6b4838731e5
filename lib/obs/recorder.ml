(* Deterministic flight recorder. See recorder.mli for the contract.

   Same design constraints as the auditor: stdlib-only (lib/obs is the
   bottom of the dependency DAG), owned by one protocol execution, mutated
   single-threadedly by its network, cheap enough to leave attached — a
   send event is one record allocation and a ring store.

   The ring is a flat circular buffer. On overflow the oldest event is
   dropped and counted — forensics then degrade to lower bounds rather
   than lying silently. *)

type send_ev = {
  s_round : int;
  s_src : int;
  s_dst : int;
  s_tag : string;
  s_digest : int64;
  s_bits : int;
  s_vt : int option; (* virtual staging time; absent on the lock-step shortcut *)
  s_payload : string option;
}

type event =
  | Send of send_ev
  | Phase of { p_round : int; p_name : string }
  | Committee of { c_round : int; c_level : int; c_idx : int; c_members : int list }
  | Decide of { d_round : int; d_party : int; d_value : string }

(* FNV-1a 64: deterministic, allocation-free, good enough to separate
   payload variants (forensic identity, not cryptographic binding — the
   raw bytes ride along when replay-grade capture is on). *)
let digest_of_payload (b : bytes) =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length b - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001b3L
  done;
  !h

let hex_of_digest d =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 d;
  Hex.encode_bytes b

let capacity = 1 lsl 21

type t = {
  ring : event array;
  mutable head : int; (* index of the oldest live event *)
  mutable len : int;
  mutable total : int;
  mutable n_dropped : int;
  kp : bool;
  corrupt : (int, unit) Hashtbl.t; (* folded from [Corrupt] events *)
}

let dummy = Phase { p_round = -1; p_name = "" }

let create ?(keep_payloads = false) () =
  {
    ring = Array.make capacity dummy;
    head = 0;
    len = 0;
    total = 0;
    n_dropped = 0;
    kp = keep_payloads;
    corrupt = Hashtbl.create 16;
  }

let is_corrupt t p = Hashtbl.mem t.corrupt p

let total_events t = t.total
let dropped t = t.n_dropped

(* --- JSONL --- *)

let event_json = function
  | Send s ->
    let vt = match s.s_vt with None -> [] | Some v -> [ ("vt", Json.int v) ] in
    let payload =
      match s.s_payload with
      | None -> []
      | Some p -> [ ("payload", Json.Str (Hex.encode p)) ]
    in
    Json.(
      Obj
        ([
           "e", Str "send"; "round", int s.s_round; "src", int s.s_src;
           "dst", int s.s_dst; "tag", Str s.s_tag; "bits", int s.s_bits;
           "digest", Str (hex_of_digest s.s_digest);
         ]
        @ vt @ payload))
  | Phase p ->
    Json.(Obj [ "e", Str "phase"; "round", int p.p_round; "name", Str p.p_name ])
  | Committee c ->
    Json.(
      Obj
        [
          "e", Str "committee"; "round", int c.c_round; "level", int c.c_level;
          "idx", int c.c_idx; "members", List (List.map int c.c_members);
        ])
  | Decide d ->
    Json.(
      Obj
        [
          "e", Str "decide"; "round", int d.d_round; "party", int d.d_party;
          "value", Str d.d_value;
        ])

let event_jsonl e = Json.compact (event_json e)

(* --- ring --- *)

let iter t f =
  for i = 0 to t.len - 1 do
    f t.ring.((t.head + i) mod capacity)
  done

let events t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.ring.((t.head + i) mod capacity) :: !acc
  done;
  !acc

let to_jsonl t =
  let buf = Buffer.create (64 * t.len) in
  iter t (fun e ->
      Buffer.add_string buf (event_jsonl e);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let push t ev =
  if t.len = capacity then begin
    (* drop oldest: forensics stay bounded and honest about coverage *)
    t.ring.(t.head) <- dummy;
    t.head <- (t.head + 1) mod capacity;
    t.len <- t.len - 1;
    t.n_dropped <- t.n_dropped + 1
  end;
  t.ring.((t.head + t.len) mod capacity) <- ev;
  t.len <- t.len + 1;
  t.total <- t.total + 1

(* --- feeding --- *)

(* Only what the log keeps is folded in: round boundaries (and the
   charges they carry) and phase exits are implied by the send rounds and
   phase entries. *)
let observe t : Event.t -> unit = function
  | Send { round; vt; src; dst; tag; payload; bits } ->
    push t
      (Send
         {
           s_round = round;
           s_src = src;
           s_dst = dst;
           s_tag = tag;
           s_digest = digest_of_payload payload;
           s_bits = bits;
           s_vt = vt;
           s_payload = (if t.kp then Some (Bytes.to_string payload) else None);
         })
  | Phase_enter { round; name } -> push t (Phase { p_round = round; p_name = name })
  | Committee { round; level; idx; members } ->
    push t (Committee { c_round = round; c_level = level; c_idx = idx; c_members = members })
  | Decide { round; party; value } ->
    push t (Decide { d_round = round; d_party = party; d_value = value })
  | Corrupt p -> Hashtbl.replace t.corrupt p ()
  | Round_end _ | Phase_exit -> ()

(* --- decisions --- *)

let deciders t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  iter t (fun e ->
      match e with
      | Decide d ->
        if not (Hashtbl.mem seen d.d_party) then begin
          Hashtbl.add seen d.d_party ();
          acc := (d.d_party, d.d_round, d.d_value) :: !acc
        end
      | _ -> ());
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !acc

(* --- causal cones --- *)

type cone = {
  cone_party : int;
  cone_round : int;
  cone_value : string;
  cone_events : int;
  cone_parties : int;
  cone_per_round : (int * int) list;
  cone_samples : (int * int list) list;
  cone_max_round_size : int;
}

(* Index shared by all cones of one log: sends bucketed by round, packed as
   (src, dst) int pairs so the per-decider backward pass touches flat
   arrays only. *)
type cone_index = {
  ix_n : int; (* 1 + max party id seen *)
  ix_rounds : (int * int) array array; (* by round: (src, dst) in log order *)
}

let cone_index t =
  let n = ref 0 and max_round = ref (-1) in
  iter t (fun e ->
      match e with
      | Send s ->
        if s.s_src >= !n then n := s.s_src + 1;
        if s.s_dst >= !n then n := s.s_dst + 1;
        if s.s_round > !max_round then max_round := s.s_round
      | Decide d ->
        if d.d_party >= !n then n := d.d_party + 1;
        if d.d_round > !max_round then max_round := d.d_round
      | _ -> ());
  let counts = Array.make (!max_round + 1) 0 in
  iter t (function
    | Send s when s.s_round >= 0 -> counts.(s.s_round) <- counts.(s.s_round) + 1
    | _ -> ());
  let rounds = Array.map (fun c -> Array.make c (0, 0)) counts in
  let fill = Array.make (!max_round + 1) 0 in
  iter t (function
    | Send s when s.s_round >= 0 ->
      rounds.(s.s_round).(fill.(s.s_round)) <- (s.s_src, s.s_dst);
      fill.(s.s_round) <- fill.(s.s_round) + 1
    | _ -> ());
  { ix_n = !n; ix_rounds = rounds }

let cone_of_index ix ~party ~round ~value =
  let n = max 1 ix.ix_n in
  (* interest.(p) = latest round at which p's state is in the cone; -1 = out *)
  let interest = Array.make n (-1) in
  if party >= 0 && party < n then interest.(party) <- round;
  let seen_round = Array.make n (-1) in (* stamp: sender counted at round r *)
  let in_cone = Array.make n false in
  if party >= 0 && party < n then in_cone.(party) <- true;
  let events_in = ref 0 in
  let per_round = ref [] in
  let samples = ref [] in
  let max_slice = ref 0 in
  let top = min (round - 1) (Array.length ix.ix_rounds - 1) in
  for r = top downto 0 do
    let slice = ref 0 in
    let sample = ref [] in
    Array.iter
      (fun (s, d) ->
        if interest.(d) >= r + 1 then begin
          incr events_in;
          if seen_round.(s) <> r then begin
            seen_round.(s) <- r;
            incr slice;
            if !slice <= 16 then sample := s :: !sample
          end;
          if interest.(s) < r then interest.(s) <- r;
          in_cone.(s) <- true
        end)
      ix.ix_rounds.(r);
    if !slice > 0 then begin
      per_round := (r, !slice) :: !per_round;
      samples := (r, List.sort compare !sample) :: !samples;
      if !slice > !max_slice then max_slice := !slice
    end
  done;
  let parties = Array.fold_left (fun a b -> if b then a + 1 else a) 0 in_cone in
  {
    cone_party = party;
    cone_round = round;
    cone_value = value;
    cone_events = !events_in;
    cone_parties = parties;
    cone_per_round = !per_round;
    cone_samples = !samples;
    cone_max_round_size = !max_slice;
  }

let causal_cones t decisions =
  let ix = cone_index t in
  List.map
    (fun (party, round, value) -> cone_of_index ix ~party ~round ~value)
    decisions

let causal_cone t ~party =
  match List.find_opt (fun (p, _, _) -> p = party) (deciders t) with
  | None -> None
  | Some d -> (
    match causal_cones t [ d ] with [ c ] -> Some c | _ -> None)

(* --- rendering --- *)

(* Innermost phase active at each round: the last Phase event whose round
   is <= r (phase entries arrive in log order). *)
let phase_at t =
  let marks = ref [] in
  iter t (function
    | Phase p -> marks := (p.p_round, p.p_name) :: !marks
    | _ -> ());
  let marks = List.rev !marks in
  fun r ->
    List.fold_left
      (fun acc (pr, name) -> if pr <= r then Some name else acc)
      None marks

let render_cone ?(phases = true) ?(max_listed = 10) t cone =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "party %d decided \"%s\" at round %d  (cone: %d parties, %d sends)\n"
       cone.cone_party cone.cone_value cone.cone_round cone.cone_parties
       cone.cone_events);
  let ph = if phases then phase_at t else fun _ -> None in
  let slices = List.rev cone.cone_per_round (* most recent first *) in
  let depth = ref 0 in
  List.iter
    (fun (r, size) ->
      let indent = String.make (2 * min !depth 20) ' ' in
      incr depth;
      let label =
        match ph r with None -> "" | Some name -> Printf.sprintf " [%s]" name
      in
      let ids =
        match List.assoc_opt r cone.cone_samples with
        | None -> ""
        | Some sample ->
          let listed = List.filteri (fun i _ -> i < max_listed) sample in
          let more = size - List.length listed in
          Printf.sprintf ": %s%s"
            (String.concat " " (List.map string_of_int listed))
            (if more > 0 then Printf.sprintf " (+%d more)" more else "")
      in
      Buffer.add_string buf
        (Printf.sprintf "%s\xe2\x94\x94\xe2\x94\x80 r%-4d%s  %d in slice%s\n"
           indent r label size ids))
    slices;
  Buffer.contents buf

(* --- equivocation --- *)

type evidence = {
  ev_src : int;
  ev_round : int;
  ev_tag : string;
  ev_src_corrupt : bool;
  ev_variants : (string * int * int list) list;
}

let conflicts ?(corrupt_only = false) t =
  (* (src, round, tag) -> digest -> (count, dsts rev) *)
  let groups : (int * int * string, (int64, int * int list) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 256
  in
  iter t (function
    | Send s ->
      let key = (s.s_src, s.s_round, s.s_tag) in
      let variants =
        match Hashtbl.find_opt groups key with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 4 in
          Hashtbl.add groups key h;
          h
      in
      let count, dsts =
        match Hashtbl.find_opt variants s.s_digest with
        | Some (c, ds) -> (c, ds)
        | None -> (0, [])
      in
      Hashtbl.replace variants s.s_digest (count + 1, s.s_dst :: dsts)
    | _ -> ());
  let out = ref [] in
  Hashtbl.iter
    (fun (src, round, tag) variants ->
      if Hashtbl.length variants >= 2 && ((not corrupt_only) || is_corrupt t src)
      then begin
        let vs =
          Hashtbl.fold
            (fun digest (count, dsts) acc ->
              let sample =
                List.filteri (fun i _ -> i < 8) (List.sort_uniq compare dsts)
              in
              (hex_of_digest digest, count, sample) :: acc)
            variants []
          |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
        in
        out :=
          {
            ev_src = src;
            ev_round = round;
            ev_tag = tag;
            ev_src_corrupt = is_corrupt t src;
            ev_variants = vs;
          }
          :: !out
      end)
    groups;
  List.sort
    (fun a b ->
      compare (a.ev_round, a.ev_src, a.ev_tag) (b.ev_round, b.ev_src, b.ev_tag))
    !out

let verify_evidence t ev =
  let distinct =
    List.sort_uniq compare (List.map (fun (d, _, _) -> d) ev.ev_variants)
  in
  if List.length distinct < 2 || List.length distinct <> List.length ev.ev_variants
  then false
  else begin
    let found = Hashtbl.create 4 in
    iter t (function
      | Send s when s.s_src = ev.ev_src && s.s_round = ev.ev_round && s.s_tag = ev.ev_tag ->
        let h = hex_of_digest s.s_digest in
        Hashtbl.replace found h
          (1 + Option.value ~default:0 (Hashtbl.find_opt found h))
      | _ -> ());
    List.for_all
      (fun (digest, count, _) ->
        match Hashtbl.find_opt found digest with
        | Some c -> c >= count
        | None -> false)
      ev.ev_variants
  end
