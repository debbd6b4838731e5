(* Binary Byzantine agreement: the Berman–Garay–Perry "phase king" protocol,
   tolerating t < m/3 corruptions among m members in (t+1) phases of 3
   rounds each, deterministic, no setup.

   This stands in for the Garay–Moses f_ba realization inside polylog-size
   committees (paper Sec. 3.1): same model (unauthenticated channels,
   t < n/3, O(t) rounds, polynomial — here O(m^2) bits/phase — total
   communication), which is all Fig. 3 needs since committees are polylog.

   Domain: bits plus bot (encoded 0/1/2). Each phase:
     round 1: broadcast v; if some w in {0,1} has count >= m - t, v := w,
              else v := bot.
     round 2: broadcast v; w* := majority value in {0,1}, d := its count.
     round 3: the phase king broadcasts its w*; members with d < m - t adopt
              the king's value (bot coerced to 0), others keep w*.

   Standard argument: all honest non-bot values after round 1 coincide, so
   if any honest member sees d >= m - t for w then every honest member's
   count of the other bit is <= t, making the honest king's w* = w; one
   honest king phase therefore establishes agreement, which persists. *)

type value = Zero | One | Bot

let value_to_byte = function Zero -> 0 | One -> 1 | Bot -> 2
let value_of_byte = function 0 -> Some Zero | 1 -> Some One | _ -> Some Bot

let value_of_bool b = if b then One else Zero

let to_bool = function One -> Some true | Zero -> Some false | Bot -> None

module Inbox = Repro_net.Inbox

type t = {
  members : Members.t; (* fixed for the instance *)
  peers : int array; (* members minus [me], shared with the whole stack *)
  me : int;
  m : int;
  t_corrupt : int;
  phases : int;
  mutable v : value;
  mutable w_star : value; (* majority bit after round 2 *)
  mutable d : int; (* its support *)
  mutable decided : value;
  mutable zeros : int; (* the last tally's 0 votes *)
  mutable ones : int; (* and 1 votes *)
}

let max_corrupt m = (m - 1) / 3

let phases_of m = max_corrupt m + 1

let phases ~members = phases_of (List.length members)

let rounds ~members = 3 * phases ~members

let of_members ~members ~me ~peers ~input =
  let m = Array.length members in
  if m = 0 then invalid_arg "Phase_king.create: no members";
  {
    members;
    peers;
    me;
    m;
    t_corrupt = max_corrupt m;
    phases = phases_of m;
    v = value_of_bool input;
    w_star = Zero;
    d = 0;
    decided = Bot;
    zeros = 0;
    ones = 0;
  }

let create ~members ~me ~input =
  let members = Members.of_list members in
  of_members ~members ~me ~peers:(Members.peers members ~me) ~input

let king t ~phase = t.members.(phase mod t.m)

let encode v = Bytes.make 1 (Char.chr (value_to_byte v))

let decode payload =
  if Bytes.length payload = 1 then value_of_byte (Char.code (Bytes.get payload 0))
  else None

(* A vote as [decode] reads it; bot and undecodable votes count for
   neither bit, and no step reads a bot count. *)
let count_vote t _ payload =
  if Bytes.length payload = 1 then
    match Bytes.unsafe_get payload 0 with
    | '\000' -> t.zeros <- t.zeros + 1
    | '\001' -> t.ones <- t.ones + 1
    | _ -> ()

(* Count each member's vote at most once (first message per source wins),
   the member's own value included, into [zeros] and [ones]. *)
let tally t own inbox =
  t.zeros <- (if own = Zero then 1 else 0);
  t.ones <- (if own = One then 1 else 0);
  Members.iter_first t.members ~me:t.me inbox t count_vote

(* The first decodable message from [king]. *)
let king_vote king inbox =
  let rec go k =
    if k >= Inbox.length inbox then None
    else
      match if Inbox.src inbox k = king then decode (Inbox.payload inbox k) else None with
      | Some _ as v -> v
      | None -> go (k + 1)
  in
  go 0

let m_send t ~round (out : Repro_net.Engine.out) =
  let phase = round / 3 and step = round mod 3 in
  match step with
  | 0 | 1 -> out.send_many t.peers (encode t.v)
  | _ -> if king t ~phase = t.me then out.send_many t.peers (encode t.w_star)

let m_recv t ~round inbox =
  let phase = round / 3 and step = round mod 3 in
  match step with
  | 0 ->
    tally t t.v inbox;
    t.v <- (if t.zeros >= t.m - t.t_corrupt then Zero
            else if t.ones >= t.m - t.t_corrupt then One
            else Bot)
  | 1 ->
    tally t t.v inbox;
    let zero = t.zeros and one = t.ones in
    if zero >= one then begin
      t.w_star <- Zero;
      t.d <- zero
    end
    else begin
      t.w_star <- One;
      t.d <- one
    end
  | _ ->
    let king = king t ~phase in
    let king_value = if king = t.me then Some t.w_star else king_vote king inbox in
    let adopted =
      if t.d >= t.m - t.t_corrupt then t.w_star
      else
        match king_value with
        | Some Bot | None -> Zero (* bot coerced: a silent king defaults to 0 *)
        | Some w -> w
    in
    t.v <- adopted;
    if phase = t.phases - 1 then t.decided <- t.v

let machine t =
  { Repro_net.Engine.m_send = (fun ~round out -> m_send t ~round out);
    m_recv = (fun ~round inbox -> m_recv t ~round inbox) }

let output t = to_bool t.decided
