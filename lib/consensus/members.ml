(* Sorted member arrays: the committee machines look sources up by binary
   search and multicast to one shared peers array, so a round allocates its
   payloads and nothing else per peer. *)

module Inbox = Repro_net.Inbox

type t = int array

let of_list l = Array.of_list (List.sort_uniq compare l)

let pos : t -> int -> int = Repro_util.Mathx.sorted_index

let peers (t : t) ~me =
  if pos t me < 0 then t else Array.of_list (List.filter (fun q -> q <> me) (Array.to_list t))

(* One flag byte per member marks the sources already counted. *)
let iter_first (t : t) ~me inbox f =
  let seen = Bytes.make (Array.length t) '\000' in
  for k = 0 to Inbox.length inbox - 1 do
    let src = Inbox.src inbox k in
    if src <> me then begin
      let i = pos t src in
      if i >= 0 && Bytes.unsafe_get seen i = '\000' then begin
        Bytes.unsafe_set seen i '\001';
        f (Inbox.payload inbox k)
      end
    end
  done
