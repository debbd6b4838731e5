(* Small integer/float helpers shared by the tree parameters and the
   benchmark statistics. *)

let ceil_div a b =
  if b <= 0 then invalid_arg "Mathx.ceil_div";
  (a + b - 1) / b

(* ceil(log2 n) for n >= 1. *)
let log2_ceil n =
  if n < 1 then invalid_arg "Mathx.log2_ceil";
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

(* floor(log2 n) for n >= 1. *)
let log2_floor n =
  if n < 1 then invalid_arg "Mathx.log2_floor";
  let rec go acc v = if v * 2 > n then acc else go (acc + 1) (v * 2) in
  go 0 1

let pow_int base exp =
  if exp < 0 then invalid_arg "Mathx.pow_int";
  let rec go acc base exp =
    if exp = 0 then acc
    else if exp land 1 = 1 then go (acc * base) (base * base) (exp asr 1)
    else go acc (base * base) (exp asr 1)
  in
  go 1 base exp

let isqrt n =
  if n < 0 then invalid_arg "Mathx.isqrt";
  let rec go x =
    let y = (x + (n / x)) / 2 in
    if y >= x then x else go y
  in
  if n = 0 then 0 else go (max 1 (n / 2))

(* Top-level, so a lookup allocates no closure: the committee machines,
   the disseminations and the boost filter run it once per message. *)
let rec search (a : int array) (x : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let v = Array.unsafe_get a mid in
    if v = x then mid else if v < x then search a x (mid + 1) hi else search a x lo mid

let sorted_index a x = search a x 0 (Array.length a)

let clamp ~lo ~hi v = max lo (min hi v)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
    sqrt var

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let idx = clamp ~lo:0 ~hi:(n - 1) (int_of_float (p *. float_of_int (n - 1))) in
    List.nth sorted idx

let median xs = percentile 0.5 xs

(* Least-squares slope of log y against log x: the empirical growth exponent
   of a series, used to check "polylog vs sqrt vs linear" shapes. *)
let loglog_slope points =
  let pts =
    List.filter (fun (x, y) -> x > 0.0 && y > 0.0) points
    |> List.map (fun (x, y) -> (log x, log y))
  in
  match pts with
  | [] | [ _ ] -> 0.0
  | _ ->
    let n = float_of_int (List.length pts) in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
    let denom = (n *. sxx) -. (sx *. sx) in
    if abs_float denom < 1e-12 then 0.0 else ((n *. sxy) -. (sx *. sy)) /. denom
