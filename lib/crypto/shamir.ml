(* Shamir secret sharing over GF(2^31 - 1).

   Degree-t sharing: any t+1 shares reconstruct, any t reveal nothing.
   Party i's share is the polynomial evaluated at x = i + 1 (never 0). *)

type share = { x : Field.t; y : Field.t }

let share rng ~secret ~threshold ~num_shares =
  if threshold < 0 || num_shares <= threshold then
    invalid_arg "Shamir.share: need num_shares > threshold >= 0";
  if num_shares >= Field.p then invalid_arg "Shamir.share: too many shares";
  let coeffs = secret :: List.init threshold (fun _ -> Field.random rng) in
  List.init num_shares (fun i ->
      let x = Field.of_int (i + 1) in
      { x; y = Field.eval_poly coeffs x })

(* Lagrange coefficients at x = 0: w_i = prod_{j <> i} x_j / (x_j - x_i). *)
let lagrange_at_zero xs =
  List.map
    (fun x ->
      let num, den =
        List.fold_left
          (fun (num, den) x' ->
            if Field.equal x' x then (num, den)
            else (Field.mul num x', Field.mul den (Field.sub x' x)))
          (Field.one, Field.one) xs
      in
      Field.div num den)
    xs

(* Lagrange interpolation at x = 0. *)
let reconstruct shares =
  match shares with
  | [] -> invalid_arg "Shamir.reconstruct: no shares"
  | _ ->
    let xs = List.map (fun s -> s.x) shares in
    if List.length (List.sort_uniq compare (xs :> int list)) <> List.length xs
    then invalid_arg "Shamir.reconstruct: duplicate x";
    List.fold_left2
      (fun acc s w -> Field.add acc (Field.mul s.y w))
      Field.zero shares (lagrange_at_zero xs)

let encode b s =
  Field.encode b s.x;
  Field.encode b s.y

let decode src =
  let x = Field.decode src in
  let y = Field.decode src in
  { x; y }
