(* Fixed-size domain pool. See parallel.mli for the contract.

   Shape: one shared FIFO of thunks guarded by a mutex/condition pair.
   [spawn_pool] starts size-1 worker domains; the caller of a map/iter is
   the remaining participant and drains the queue itself before blocking on
   the per-call completion condition, so the pool is never idle while a
   caller waits and a queue-draining caller can never deadlock the pool.

   Nested operations (from inside a task) detect the worker context through
   a domain-local flag and run sequentially: the outermost fan-out owns the
   parallelism. *)

type pool = {
  mutex : Mutex.t;
  work : Condition.t; (* signalled when the queue gains a task *)
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t array;
}

let configured : int option ref = ref None
let pool : pool option ref = ref None

(* True while this domain is executing a pool task (worker domains always;
   the caller only while helping). Nested calls then degrade to sequential. *)
let in_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* Per-slot utilization: slot 0 is the caller (including top-level
   sequential loops), slots 1..d-1 the worker domains. Each slot has exactly
   one writer (its own domain), so plain mutable fields suffice; the array
   itself is only replaced while the pool is quiescent (spawn, set_domains,
   reset). *)
type slot = {
  mutable s_tasks : int;
  mutable s_busy : float; (* seconds spent inside tasks *)
}

let slots : slot array ref = ref [||]

let ensure_slots d =
  if Array.length !slots < d then begin
    let old = !slots in
    slots :=
      Array.init d (fun i ->
          if i < Array.length old then old.(i) else { s_tasks = 0; s_busy = 0. })
  end

let record_slot i ~tasks dt =
  let s = !slots in
  if i < Array.length s then begin
    s.(i).s_tasks <- s.(i).s_tasks + tasks;
    s.(i).s_busy <- s.(i).s_busy +. dt
  end

let utilization () = Array.map (fun s -> (s.s_tasks, s.s_busy)) !slots

let reset_utilization () =
  Array.iter
    (fun s ->
      s.s_tasks <- 0;
      s.s_busy <- 0.)
    !slots

(* Time a top-level sequential fan-out into slot 0. Inside a pool task the
   enclosing chunk already accounts for the work, so nested calls skip. *)
let seq_timed f =
  if !(Domain.DLS.get in_task) then f ()
  else begin
    ensure_slots 1;
    let t0 = Unix.gettimeofday () in
    let r = f () in
    record_slot 0 ~tasks:1 (Unix.gettimeofday () -. t0);
    r
  end

let default_size () =
  match Sys.getenv_opt "REPRO_DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

let domains () =
  match !configured with
  | Some n -> n
  | None ->
      let n = default_size () in
      configured := Some n;
      n

let worker_loop p slot () =
  Domain.DLS.get in_task := true;
  let running = ref true in
  while !running do
    Mutex.lock p.mutex;
    while Queue.is_empty p.queue && p.live do
      Condition.wait p.work p.mutex
    done;
    if Queue.is_empty p.queue then begin
      (* shut down: queue drained and no longer live *)
      Mutex.unlock p.mutex;
      running := false
    end
    else begin
      let task = Queue.pop p.queue in
      Mutex.unlock p.mutex;
      let t0 = Unix.gettimeofday () in
      task ();
      record_slot slot ~tasks:1 (Unix.gettimeofday () -. t0)
    end
  done

let shutdown () =
  match !pool with
  | None -> ()
  | Some p ->
      Mutex.lock p.mutex;
      p.live <- false;
      Condition.broadcast p.work;
      Mutex.unlock p.mutex;
      Array.iter Domain.join p.workers;
      pool := None

let () = at_exit shutdown

let set_domains n =
  shutdown ();
  slots := [||];
  configured := Some (max 1 n)

(* The caller participates, so a pool of size [d] spawns [d - 1] domains.
   The record is completed before any domain starts so workers see a fully
   initialized pool. *)
let spawn_pool d =
  let p =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [||];
    }
  in
  ensure_slots d;
  p.workers <-
    Array.init (d - 1) (fun i -> Domain.spawn (fun () -> worker_loop p (i + 1) ()));
  p

let get_pool () =
  match !pool with
  | Some p -> Some p
  | None ->
      let d = domains () in
      if d <= 1 then None
      else begin
        let p = spawn_pool d in
        pool := Some p;
        Some p
      end

(* Run [body i] for every [i] in [0, n): chunked onto the pool, caller
   helping, first exception re-raised once all chunks have settled. *)
let parallel_for ?chunk n body =
  let d = domains () in
  if n <= 0 then ()
  else if d = 1 || n = 1 || !(Domain.DLS.get in_task) then
    seq_timed (fun () ->
        for i = 0 to n - 1 do
          body i
        done)
  else
    match get_pool () with
    | None ->
        seq_timed (fun () ->
            for i = 0 to n - 1 do
              body i
            done)
    | Some p ->
        let chunk =
          match chunk with
          | Some c -> max 1 c
          | None -> max 1 ((n + (d * 8) - 1) / (d * 8))
        in
        let nchunks = (n + chunk - 1) / chunk in
        let cm = Mutex.create () in
        let cc = Condition.create () in
        let completed = ref 0 in
        let failed = ref None in
        let task lo hi () =
          (try
             for i = lo to hi - 1 do
               body i
             done
           with e ->
             Mutex.lock cm;
             if !failed = None then failed := Some e;
             Mutex.unlock cm);
          Mutex.lock cm;
          incr completed;
          if !completed = nchunks then Condition.signal cc;
          Mutex.unlock cm
        in
        Mutex.lock p.mutex;
        for c = 0 to nchunks - 1 do
          let lo = c * chunk in
          let hi = min n (lo + chunk) in
          Queue.add (task lo hi) p.queue
        done;
        Condition.broadcast p.work;
        Mutex.unlock p.mutex;
        (* Help drain the queue (possibly including other calls' tasks when
           fan-outs nest) instead of going idle. *)
        let flag = Domain.DLS.get in_task in
        let helping = ref true in
        while !helping do
          Mutex.lock p.mutex;
          if Queue.is_empty p.queue then begin
            Mutex.unlock p.mutex;
            helping := false
          end
          else begin
            let task = Queue.pop p.queue in
            Mutex.unlock p.mutex;
            flag := true;
            let t0 = Unix.gettimeofday () in
            task ();
            record_slot 0 ~tasks:1 (Unix.gettimeofday () -. t0);
            flag := false
          end
        done;
        Mutex.lock cm;
        while !completed < nchunks do
          Condition.wait cc cm
        done;
        Mutex.unlock cm;
        (match !failed with Some e -> raise e | None -> ())

let sequential () = domains () = 1 || !(Domain.DLS.get in_task)

let map ?chunk f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if n = 1 || sequential () then seq_timed (fun () -> Array.map f arr)
  else begin
    (* Seed the result array with the genuinely-needed first element so no
       dummy value (and no [Obj.magic]) is required; float arrays stay
       sound. [f] runs exactly once per element. *)
    let first = f (Array.unsafe_get arr 0) in
    let out = Array.make n first in
    parallel_for ?chunk (n - 1) (fun i -> out.(i + 1) <- f arr.(i + 1));
    out
  end

let init ?chunk n f =
  if n <= 0 then [||]
  else if n = 1 || sequential () then seq_timed (fun () -> Array.init n f)
  else begin
    let first = f 0 in
    let out = Array.make n first in
    parallel_for ?chunk (n - 1) (fun i -> out.(i + 1) <- f (i + 1));
    out
  end

let map_list ?chunk f l = Array.to_list (map ?chunk f (Array.of_list l))

(* Busy time per slot depends on how chunks landed on domains, so the
   report keeps the probe in its nondeterministic section. *)
let () =
  Repro_obs.Profile.register_probe ~name:"pool" (fun () ->
      let u = utilization () in
      ("domains", domains ())
      :: ("slots", Array.length u)
      :: List.concat
           (List.mapi
              (fun i (tasks, busy) ->
                [
                  (Printf.sprintf "slot%d.tasks" i, tasks);
                  (Printf.sprintf "slot%d.busy_us" i, int_of_float (busy *. 1e6));
                ])
              (Array.to_list u)))
