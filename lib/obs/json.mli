(** JSON values: the one writer every report goes through, and a reader for
    the repository's own outputs (reports, audit timelines, recorder logs).
    Numbers are all represented as [float] ([Int] is not distinguished),
    and object member order is preserved. Also reachable as
    [Repro_util.Json].

    {b Writer.} A report's contract is its parsed value, so the writer has
    one rule each for numbers and strings:
    - a finite integral number below 1e15 in magnitude prints as an integer
      ([-0.] as [-0]); any other finite number prints in its shortest
      round-tripping form ([%.15g] to [%.17g]). A non-finite number raises
      [Invalid_argument]: a NaN in a report is a bug to surface, not a
      [null] to hide.
    - strings escape the double quote, backslash, newline, CR and TAB with
      a backslash and other bytes below 0x20 as [\u00XX]; every other byte
      is copied as is.

    {!compact} prints with no whitespace. {!pretty} prints a document: a
    top-level object one ["key": value] member per line, indented two
    spaces; a non-empty list of objects or lists that is the document or a
    top-level member one element per line; everything else compact. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** {1 Building} *)

val int : int -> t

val fixed : int -> float -> t
(** [fixed k f] is [f] rounded to [k] decimals: the number ["%.kf"]
    prints, as a reader parses it back. A field's precision is part of its
    schema. *)

val option : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)

val of_counts : (string * int) list -> t
(** A flat object of integers, in list order. *)

(** {1 Writing} *)

val compact : t -> string
(** One line, no trailing newline: JSONL rows and embedded objects. *)

val pretty : t -> string
(** The document layout described above, newline-terminated.
    @raise Invalid_argument on a non-finite number (so does {!compact}). *)

(** {1 Reading} *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed), RFC 8259
    grammar: no leading zeros, no bare fraction point, no raw control
    bytes in strings. The error string carries a byte offset. *)

val parse_at : string -> (t, int * string) result
(** {!parse} with the error's byte offset as a number. *)

val parse_exn : string -> t
(** @raise Failure on malformed input. *)

(** {1 Accessors} — total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
(** Object member lookup (first match). *)

val to_list : t -> t list option
val to_float : t -> float option
val to_int : t -> int option
(** [to_int] truncates the underlying float. *)

val to_string : t -> string option
val to_bool : t -> bool option

(** {1 Comparing} *)

val diff : t -> t -> string list
(** [diff a b] is one line per path where [a] and [b] differ, [[]] iff
    they are equal, in [a]'s member order (then the members only [b]
    has). A line reads [path: x -> y]: the path names members with [.]
    and list items with [[i]] (as in [a.b[2].c]; ["(document)"] for the
    root), and [x] and [y] are the two values, a container shown by its
    size and a side that lacks the path as [(absent)]. Members are matched
    by key, so object member order is not compared; list items by index,
    so lists of different lengths differ at each index only one side
    has. Numbers compare as floats, and a value of another kind (a number
    against a string, say) differs. *)
