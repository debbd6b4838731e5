(* Pinned deterministic fingerprints per (workload, seed). The simulator is
   a pure function of its inputs, so a run whose fingerprint differs from
   the pinned one computed something else, however fast it was. A
   fingerprint is one string per cell (one cell for the single-cell
   workloads, one per matrix cell for the matrix). *)

module Json = Repro_util.Json

type t = (string * (int * string list) list) list

let of_json j : (t, string) result =
  let strings v =
    match Json.to_list v with
    | Some l when List.for_all (fun s -> Json.to_string s <> None) l ->
      Some (List.filter_map Json.to_string l)
    | _ -> None
  in
  match j with
  | Json.Obj ws -> (
    try
      Ok
        (List.map
           (fun (w, seeds) ->
             match seeds with
             | Json.Obj kvs ->
               ( w,
                 List.map
                   (fun (s, v) ->
                     match (int_of_string_opt s, strings v) with
                     | Some seed, Some fp -> (seed, fp)
                     | _ -> failwith (w ^ "/" ^ s))
                   kvs )
             | _ -> failwith w)
           ws)
    with Failure where -> Error ("expect: malformed entry " ^ where))
  | _ -> Error "expect: not a JSON object"

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> Result.bind (Json.parse s) of_json

let to_json (t : t) =
  Json.Obj
    (List.map
       (fun (w, seeds) ->
         ( w,
           Json.Obj
             (List.map
                (fun (s, fp) ->
                  (string_of_int s, Json.List (List.map (fun c -> Json.Str c) fp)))
                seeds) ))
       t)

(* The pinned cell seeds of one workload, ascending. *)
let seeds (t : t) ~workload =
  Array.of_list (List.sort compare (List.map fst (Option.value ~default:[] (List.assoc_opt workload t))))

(* [t] with one workload's pins replaced. *)
let set (t : t) ~workload pins =
  let pins = List.sort compare pins in
  if List.mem_assoc workload t then List.map (fun (w, p) -> if w = workload then (w, pins) else (w, p)) t
  else t @ [ (workload, pins) ]

let pinned (t : t) ~workload ~seed =
  Option.bind (List.assoc_opt workload t) (List.assoc_opt seed)

(* Every cell, over one run's repetitions at a pinned (workload, seed),
   that contradicts the pinned fingerprint: (rep, expected, got). A
   repetition with a different cell count contradicts on every cell. *)
let mismatches t ~workload ~seed (reps : string list list) =
  match pinned t ~workload ~seed with
  | None -> []
  | Some reference ->
    List.concat
      (List.mapi
         (fun rep cells ->
           if List.length cells <> List.length reference then
             List.map (fun c -> (rep, "<" ^ string_of_int (List.length reference) ^ " cells>", c)) cells
           else
             List.filter_map
               (fun (e, c) -> if e = c then None else Some (rep, e, c))
               (List.combine reference cells))
         reps)
