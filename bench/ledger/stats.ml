(* Order statistics over a run's samples. Quartiles use the "exclusive"
   method of Python's [statistics.quantiles(data, n=4)], so a spread printed
   here is the spread an external checker computes from the same samples. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

let summarize samples =
  let d = Array.of_list (List.sort compare samples) in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.summarize: no samples";
  if ld = 1 then { median = d.(0); q1 = d.(0); q3 = d.(0); n = 1 }
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    { median = q 2; q1 = q 1; q3 = q 3; n = ld }

(* Interquartile range as a share of the median; 0 for a zero median. *)
let rel_spread s =
  if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median
