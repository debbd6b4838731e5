(* Counter/histogram registry. See counters.mli for the contract.

   Counters are plain [Atomic.t] cells behind one global enabled flag: a
   disabled bump is a single atomic load and branch, cheap enough to leave in
   every SHA-256 compression. Sums of atomic increments are order
   independent, so totals accumulated from the domain pool are exact. *)

type t = {
  name : string;
  v : int Atomic.t;
}

type histogram = {
  h_name : string;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  buckets : int Atomic.t array; (* bucket i: values in [2^i, 2^(i+1)) *)
}

let num_buckets = 32

(* Registration happens at module-load time of the instrumented libraries
   (single-domain) but also lazily from tests; the mutex keeps the lists
   consistent if a pool task ever registers. Reads during a run take no
   lock: the lists are only ever prepended to. *)
let reg_mutex = Mutex.create ()
let registry : t list ref = ref []
let histograms : histogram list ref = ref []

let enabled = Atomic.make (Sys.getenv_opt "REPRO_COUNTERS" <> None)
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let make name =
  Mutex.lock reg_mutex;
  let c =
    match List.find_opt (fun c -> c.name = name) !registry with
    | Some c -> c
    | None ->
      let c = { name; v = Atomic.make 0 } in
      registry := c :: !registry;
      c
  in
  Mutex.unlock reg_mutex;
  c

let bump c = if Atomic.get enabled then Atomic.incr c.v
let add c k = if Atomic.get enabled then ignore (Atomic.fetch_and_add c.v k)
let value c = Atomic.get c.v

let histogram name =
  Mutex.lock reg_mutex;
  let h =
    match List.find_opt (fun h -> h.h_name = name) !histograms with
    | Some h -> h
    | None ->
      let h =
        {
          h_name = name;
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
          buckets = Array.init num_buckets (fun _ -> Atomic.make 0);
        }
      in
      histograms := h :: !histograms;
      h
  in
  Mutex.unlock reg_mutex;
  h

let bucket_of v =
  let rec go i x = if x <= 1 || i = num_buckets - 1 then i else go (i + 1) (x lsr 1) in
  go 0 (max 0 v)

let observe h v =
  if Atomic.get enabled then begin
    Atomic.incr h.h_count;
    ignore (Atomic.fetch_and_add h.h_sum v);
    Atomic.incr h.buckets.(bucket_of v)
  end

let reset () =
  List.iter (fun c -> Atomic.set c.v 0) !registry;
  List.iter
    (fun h ->
      Atomic.set h.h_count 0;
      Atomic.set h.h_sum 0;
      Array.iter (fun b -> Atomic.set b 0) h.buckets)
    !histograms

let snapshot () =
  List.map (fun c -> (c.name, Atomic.get c.v)) !registry
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pp_table ppf snap =
  let width =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 8 snap
  in
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-*s %12d@." width name v)
    snap

let histogram_snapshot () =
  List.map
    (fun h ->
      ( h.h_name,
        ( Atomic.get h.h_count,
          Atomic.get h.h_sum,
          Array.map Atomic.get h.buckets ) ))
    !histograms
  |> List.sort (fun (a, _) (b, _) -> compare a b)
