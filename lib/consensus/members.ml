(* Sorted member arrays: the committee machines look sources up by binary
   search and build their sends straight from the array, so a round
   allocates its messages and nothing else per peer. *)

type t = int array

let of_list l = Array.of_list (List.sort_uniq compare l)

let pos (t : t) p =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let q = Array.unsafe_get t mid in
      if q = p then mid else if q < p then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t)

let to_peers (t : t) ~me payload =
  let rec go i acc =
    if i < 0 then acc
    else
      let q = Array.unsafe_get t i in
      go (i - 1) (if q = me then acc else (q, payload) :: acc)
  in
  go (Array.length t - 1) []

(* One flag byte per member marks the sources already counted. *)
let iter_first (t : t) ~me msgs f =
  let seen = Bytes.make (Array.length t) '\000' in
  List.iter
    (fun (src, payload) ->
      if src <> me then begin
        let i = pos t src in
        if i >= 0 && Bytes.unsafe_get seen i = '\000' then begin
          Bytes.unsafe_set seen i '\001';
          f payload
        end
      end)
    msgs
