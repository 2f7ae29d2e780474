(* LP engine identity and the float pre-solve switch; interface
   documentation in engine.mli. *)

type t = Sparse

let presolve = ref false
let get () = Sparse
let set_presolve b = presolve := b
let presolve_enabled () = !presolve
let to_string Sparse = "sparse"
