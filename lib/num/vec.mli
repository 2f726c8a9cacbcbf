(** Dense vectors of floats.

    A vector is a plain [float array]; this module provides the arithmetic
    and reductions used throughout the library.  All binary operations
    require equal lengths and raise [Invalid_argument] otherwise. *)

type t = float array

val create : int -> t
(** [create n] is a zero vector of length [n]. *)

val init : int -> (int -> float) -> t
(** [init n f] is [| f 0; ...; f (n-1) |]. *)

val copy : t -> t

val dim : t -> int

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val mean : t -> float
(** Raises [Invalid_argument] on the empty vector. *)

val linspace : float -> float -> int -> t
(** [linspace a b n] is [n >= 2] evenly spaced points from [a] to [b]
    inclusive. *)
