(* Span recording and Chrome trace-event export. See trace.mli.

   Hot path: [span] with tracing disabled is one atomic load and a branch.
   When enabled, each domain appends to its own buffer (Domain.DLS), so pool
   workers never contend; buffers register themselves in a global list on
   first use and are merged by [events]/[flush]. *)

(* Gc quickstat delta over one span, on the domain that ran it. OCaml 5
   keeps minor-heap counters per domain, so a span's delta covers exactly
   the allocation its own domain performed while the span was open —
   work farmed to pool workers shows up in their spans (if any), not the
   caller's. *)
type gc_delta = {
  g_minor_words : float;
  g_promoted_words : float;
  g_major_words : float;
  g_minor_collections : int;
  g_major_collections : int;
}

type event = {
  e_name : string;
  e_cat : string;
  e_ts : float;
  e_dur : float;
  e_tid : int;
  e_path : string list;
  e_args : (string * string) list;
  e_gc : gc_delta option;
}

(* Per-domain buffer: recorded events plus the stack of open span names
   (outermost last), used to stamp each event with its nesting path. *)
type dbuf = {
  mutable evs : event list;
  mutable n : int;
  mutable stack : string list;
  mutable dropped : int;
}

let max_events_per_domain = 1 lsl 20

let reg_mutex = Mutex.create ()
let buffers : dbuf list ref = ref []

let dls_key =
  Domain.DLS.new_key (fun () ->
      let b = { evs = []; n = 0; stack = []; dropped = 0 } in
      Mutex.lock reg_mutex;
      buffers := b :: !buffers;
      Mutex.unlock reg_mutex;
      b)

let out_file = ref (Sys.getenv_opt "REPRO_TRACE_FILE")
let enabled = Atomic.make (!out_file <> None)

let set_enabled b = Atomic.set enabled b

let set_output o =
  out_file := o;
  if o <> None then Atomic.set enabled true

let output () = !out_file

(* Per-span Gc accounting is opt-in on top of tracing: two [Gc.quick_stat]
   calls per span are cheap but not free, and most trace users only want
   wall time. *)
let gc_capture = Atomic.make false
let set_gc_capture b = Atomic.set gc_capture b

(* Trace epoch: timestamps are microseconds since module load, keeping them
   small enough to render exactly as JSON numbers. *)
let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

let record b ev =
  if b.n < max_events_per_domain then begin
    b.evs <- ev :: b.evs;
    b.n <- b.n + 1
  end
  else b.dropped <- b.dropped + 1

let span ?(cat = "repro") ?(args = []) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let b = Domain.DLS.get dls_key in
    b.stack <- name :: b.stack;
    (* [Gc.quick_stat].minor_words only advances at collection boundaries in
       native code; [Gc.minor_words] reads the allocation pointer, so spans
       too short to trigger a minor GC still see their own allocation. *)
    let g0 =
      if Atomic.get gc_capture then Some (Gc.quick_stat (), Gc.minor_words ())
      else None
    in
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      (* Delta before building the event record, so the record's own
         allocation lands in the parent span, not this one. *)
      let gc =
        match g0 with
        | None -> None
        | Some (s0, mw0) ->
          let s1 = Gc.quick_stat () in
          Some
            {
              g_minor_words = Gc.minor_words () -. mw0;
              g_promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
              g_major_words = s1.Gc.major_words -. s0.Gc.major_words;
              g_minor_collections =
                s1.Gc.minor_collections - s0.Gc.minor_collections;
              g_major_collections =
                s1.Gc.major_collections - s0.Gc.major_collections;
            }
      in
      (match b.stack with _ :: tl -> b.stack <- tl | [] -> ());
      record b
        {
          e_name = name;
          e_cat = cat;
          e_ts = t0;
          e_dur = t1 -. t0;
          e_tid = (Domain.self () :> int);
          e_path = List.rev b.stack @ [ name ];
          e_args = args;
          e_gc = gc;
        }
    in
    match f () with
    | x ->
      finish ();
      x
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

let mark ?(cat = "repro") ?(args = []) name =
  if Atomic.get enabled then begin
    let b = Domain.DLS.get dls_key in
    record b
      {
        e_name = name;
        e_cat = cat;
        e_ts = now_us ();
        e_dur = 0.;
        e_tid = (Domain.self () :> int);
        e_path = List.rev b.stack @ [ name ];
        e_args = args;
        e_gc = None;
      }
  end

let events () =
  Mutex.lock reg_mutex;
  let bs = !buffers in
  Mutex.unlock reg_mutex;
  List.concat_map (fun b -> b.evs) bs
  |> List.sort (fun a b -> compare (a.e_ts, a.e_tid) (b.e_ts, b.e_tid))

let dropped () =
  Mutex.lock reg_mutex;
  let bs = !buffers in
  Mutex.unlock reg_mutex;
  List.fold_left (fun acc b -> acc + b.dropped) 0 bs

let reset () =
  Mutex.lock reg_mutex;
  let bs = !buffers in
  Mutex.unlock reg_mutex;
  List.iter
    (fun b ->
      b.evs <- [];
      b.n <- 0;
      b.dropped <- 0)
    bs

let event_json ev =
  let args =
    if ev.e_args = [] then []
    else [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ev.e_args)) ]
  in
  Json.(
    Obj
      ([
         "name", Str ev.e_name; "cat", Str ev.e_cat; "ph", Str "X";
         "ts", fixed 3 ev.e_ts; "dur", fixed 3 ev.e_dur; "pid", int 1;
         "tid", int ev.e_tid;
       ]
      @ args))

let to_chrome_json evs = Json.pretty (Json.List (List.map event_json evs))

let flush () =
  match !out_file with
  | None -> ()
  | Some file ->
    let evs = events () in
    if evs <> [] then begin
      let oc = open_out file in
      output_string oc (to_chrome_json evs);
      close_out oc
    end

let () = at_exit flush
