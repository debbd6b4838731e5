(* Multivalued Byzantine agreement via the Turpin–Coan reduction (t < m/3)
   on top of binary phase-king.

   Two pre-rounds:
     round 0: broadcast the input value v.
     round 1: broadcast x = the (unique) value with round-0 support >= m - t,
              or bot. Then let y be the most supported non-bot round-1 value,
              c its support; vote 0 ("confident") in the binary BA iff
              c >= m - t, and remember y as the alternative if c >= t + 1.
   Then binary phase-king on the confidence bit; decide the alternative if
   the bit agreement outputs 0 (confident), otherwise decide None.

   Guarantees (classic): agreement always; if all honest inputs equal v the
   output is v; the output is either some honest member's input or None.
   That last property is what {!Committee.agree} exploits: an agreed-on
   value was broadcast by an honest member, so every honest member holds it. *)

type t = {
  members : Members.t;
  peers : int array; (* members minus [me], shared with the inner phase king *)
  me : int;
  m : int;
  t_corrupt : int;
  rounds : int;
  input : bytes;
  mutable x : bytes option; (* round-1 broadcast value *)
  mutable alternative : bytes option;
  mutable pk : Phase_king.t option; (* created after round 1 *)
  mutable decided : bool; (* completion flag *)
  mutable output : bytes option;
}

let pre_rounds = 2

let rounds ~members = pre_rounds + Phase_king.rounds ~members

let of_members ~members ~me ~peers ~input =
  let m = Array.length members in
  {
    members;
    peers;
    me;
    m;
    t_corrupt = Phase_king.max_corrupt m;
    rounds = rounds ~members:(Array.to_list members);
    input;
    x = None;
    alternative = None;
    pk = None;
    decided = false;
    output = None;
  }

let create ~members ~me ~input =
  let members = Members.of_list members in
  of_members ~members ~me ~peers:(Members.peers members ~me) ~input

let enc_opt v =
  Repro_util.Encode.to_bytes (fun b ->
      Repro_util.Encode.option b Repro_util.Encode.bytes v)

let dec_opt payload =
  match
    Repro_util.Encode.decode payload (fun src ->
        Repro_util.Encode.r_option src Repro_util.Encode.r_bytes)
  with
  | Some v -> v
  | None -> None

(* Add [c] to [v]'s count in the association list [counts]. *)
let rec bump counts v c =
  match counts with
  | [] -> [ (v, ref c) ]
  | (k, r) :: rest ->
    if Bytes.equal k v then begin
      r := !r + c;
      counts
    end
    else (k, r) :: bump rest v c

(* Tally distinct members' byte values (own value included) as (value,
   count) pairs. Payloads are grouped by their raw bytes first, so each
   distinct payload is decoded once; equal payloads decode to equal values,
   so merging the groups by value gives the per-value counts. *)
let tally t own inbox =
  let raw = ref [] in
  Members.iter_first t.members ~me:t.me inbox (fun payload -> raw := bump !raw payload 1);
  let counts = match own with Some v -> [ (v, ref 1) ] | None -> [] in
  List.fold_left
    (fun counts (payload, c) ->
      match dec_opt payload with Some v -> bump counts v !c | None -> counts)
    counts !raw

(* The most supported value; ties go to the smallest. *)
let best counts =
  List.fold_left
    (fun acc (k, c) ->
      match acc with
      | Some (_, c') when c' > !c -> acc
      | Some (k', c') when c' = !c && Bytes.compare k' k <= 0 -> acc
      | _ -> Some (k, !c))
    None counts

let m_send t ~round (out : Repro_net.Engine.out) =
  if t.decided then () (* instance finished; co-scheduled larger instances may still run *)
  else if round = 0 then out.send_many t.peers (enc_opt (Some t.input))
  else if round = 1 then out.send_many t.peers (enc_opt t.x)
  else
    match t.pk with
    | Some pk -> Phase_king.m_send pk ~round:(round - pre_rounds) out
    | None -> ()

let m_recv t ~round inbox =
  if round = 0 then
    (* at most one value reaches m - t > m/2 distinct members *)
    t.x <-
      List.fold_left
        (fun acc (k, c) -> if !c >= t.m - t.t_corrupt then Some k else acc)
        None (tally t (Some t.input) inbox)
  else if round = 1 then begin
    let confident =
      match best (tally t t.x inbox) with
      | Some (k, c) ->
        if c >= t.t_corrupt + 1 then t.alternative <- Some k;
        c >= t.m - t.t_corrupt
      | None -> false
    in
    (* binary BA input: true = "not confident / fall back to None" *)
    t.pk <-
      Some
        (Phase_king.of_members ~members:t.members ~me:t.me ~peers:t.peers
           ~input:(not confident))
  end
  else if not t.decided then begin
    (match t.pk with
    | Some pk -> Phase_king.m_recv pk ~round:(round - pre_rounds) inbox
    | None -> ());
    if round = t.rounds - 1 then begin
      t.decided <- true;
      t.output <-
        (match t.pk with
        | Some pk when Phase_king.output pk = Some false -> t.alternative
        | _ -> None)
    end
  end

let machine t =
  { Repro_net.Engine.m_send = (fun ~round out -> m_send t ~round out);
    m_recv = (fun ~round inbox -> m_recv t ~round inbox) }

let output t = if t.decided then Some t.output else None
