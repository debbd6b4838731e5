(* The observation stream: one typed event per fact the network's choke
   points see, emitted by the network (and by protocol layers through it)
   to the subscribers passed at [Network.create]. The auditor, the flight
   recorder and transcript taps are folds over it; what each one observes
   is therefore the same stream by construction, not several hand-wired
   calls kept in step.

   Events are built only when at least one subscriber listens, so an
   unobserved network pays nothing for them. The always-on accounting
   (per-party metrics, the message-size histogram) stays a direct call in
   the network and never goes through here. *)

type t =
  | Send of {
      round : int;  (** staging round *)
      vt : int option;
          (** virtual staging time; [None] while the network is on its
              lock-step shortcut (zero knobs, no condition), where the
              clock is the round number *)
      src : int;
      dst : int;
      tag : string;
      payload : bytes;
      bits : int;  (** 8 * wire size: the charge every consumer uses *)
    }  (** one accepted send, in send order *)
  | Deliver of { src : int; dst : int; bits : int }
      (** a delivery made at the close of the current round *)
  | Scheduled of int
      (** handlers the stepper invoked in the round about to close *)
  | Round_end of int  (** the round closed, after its deliveries *)
  | Phase_enter of { round : int; name : string }
  | Phase_exit  (** closes the innermost open phase *)
  | Committee of { round : int; level : int; idx : int; members : int list }
      (** tree-node committee membership, fixed at [round] *)
  | Decide of { round : int; party : int; value : string }
      (** a party's first accepted output *)
  | Corrupt of int
      (** the party is corrupt from now on: emitted at creation for the
          static set, and again on every mid-run upgrade *)

type sink = t -> unit
