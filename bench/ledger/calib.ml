(* Machine-speed reference for times taken on a shared host, where
   neighbours' load can slow a cell by up to 1.8x for minutes at a time,
   which no statistic over one run's repetitions can remove. A fixed pure-OCaml
   kernel (hashing, allocation and sorting, integer mixing) that shares no
   code with the program under test runs just before and just after each
   timed call, in the same process; scaling the call's time by
   [reference_s / kernel time] reads it as seconds on a machine where the
   kernel takes [reference_s], cancelling most of the drift. *)

let reference_s = 0.04

let kernel () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 100_000 do
    Hashtbl.replace h ((i * 7919) land 0xFFFF) i
  done;
  let l = List.sort compare (List.init 100_000 (fun i -> (i * 40503) land 0xFFFF)) in
  let x = ref 0 in
  for i = 0 to 2_000_000 do
    x := ((!x lxor (i * 0x9E3779B1)) lsr 1) + i
  done;
  ignore (Sys.opaque_identity (h, l, !x));
  Unix.gettimeofday () -. t0

(* Mean kernel time with [domains] domains running it at once: a pooled
   call's speed depends on every core it occupies. *)
let speed ~domains =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel) in
  let mine = kernel () in
  List.fold_left (fun acc d -> acc +. Domain.join d) mine others /. float_of_int domains

(* [f ()]'s result, its wall time, and the mean kernel time around it. *)
let around ~domains f =
  let k0 = speed ~domains in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  (r, dt, (k0 +. speed ~domains) /. 2.)
