(* Sorted member arrays: the committee machines multicast to one shared
   peers array, so a round allocates its payloads and nothing else per
   peer, and they find each message's member by one walk of the inbox.

   The walk. A committee inbox is usually sorted by source: under
   lock-step delivery each source's fan-out lands in send order, and the
   network visits the senders in ascending order. So while sources ascend
   the walk merges them with the member array (a cursor that only moves
   forward), and a source equal to the previous one is a repeat, without
   a lookup. At the first descent (delayed, reordered or adversarial mail)
   it falls back to a binary search per message and, when only the first
   message per source counts, one flag byte per member, marking first the
   members the ascending prefix already counted. Either way the messages
   are visited in inbox order. *)

module Inbox = Repro_net.Inbox

type t = int array

let of_list l = Array.of_list (List.sort_uniq compare l)

let pos : t -> int -> int = Repro_util.Mathx.sorted_index

let peers (t : t) ~me =
  if pos t me < 0 then t else Array.of_list (List.filter (fun q -> q <> me) (Array.to_list t))

(* From message [k0] on, by binary search; with [first], the members of
   messages [0, k0) are marked before. *)
let walk_search (t : t) ~me ~first inbox k0 ctx f =
  let seen = if first then Bytes.make (Array.length t) '\000' else Bytes.empty in
  if first then
    for k = 0 to k0 - 1 do
      let i = pos t (Inbox.src inbox k) in
      if i >= 0 then Bytes.unsafe_set seen i '\001'
    done;
  for k = k0 to Inbox.length inbox - 1 do
    let src = Inbox.src inbox k in
    if src <> me then begin
      let i = pos t src in
      if i >= 0 then
        if not first then f ctx i (Inbox.payload inbox k)
        else if Bytes.unsafe_get seen i = '\000' then begin
          Bytes.unsafe_set seen i '\001';
          f ctx i (Inbox.payload inbox k)
        end
    end
  done

(* The merge: [j] is the first member not below [last], the previous
   source, and [at] is [last]'s position, or -1 when it is [me] or no
   member. *)
let walk (t : t) ~me ~first inbox ctx f =
  let m = Array.length t and len = Inbox.length inbox in
  let k = ref 0 and j = ref 0 and last = ref (-1) and at = ref (-1) in
  while !k < len do
    let src = Inbox.src inbox !k in
    if src = !last then begin
      if !at >= 0 && not first then f ctx !at (Inbox.payload inbox !k);
      incr k
    end
    else if src > !last then begin
      while !j < m && Array.unsafe_get t !j < src do
        incr j
      done;
      at := if !j < m && Array.unsafe_get t !j = src && src <> me then !j else -1;
      last := src;
      if !at >= 0 then f ctx !at (Inbox.payload inbox !k);
      incr k
    end
    else begin
      walk_search t ~me ~first inbox !k ctx f;
      k := len
    end
  done

(* No party is -1, so [iter] skips no member. *)
let iter t inbox ctx f = walk t ~me:(-1) ~first:false inbox ctx f

let iter_first t ~me inbox ctx f = walk t ~me ~first:true inbox ctx f
