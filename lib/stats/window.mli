(** Bounded sliding window of float samples with running statistics.

    This is the data structure behind Dynatune's [RTTs] list: samples are
    appended, the oldest is evicted once [capacity] is exceeded.  The
    mean of the current contents is O(1) from a running sum, which is
    periodically recomputed from the stored samples to bound
    floating-point drift; the standard deviation is an O(n) two-pass
    loop over the window. *)

type t

val create : capacity:int -> t
(** [create ~capacity] holds at most [capacity] samples.
    Requires [capacity > 0]. *)

val capacity : t -> int
val length : t -> int
val is_full : t -> bool
val clear : t -> unit

val push : t -> float -> unit
(** Append a sample, evicting the oldest when full. *)

val mean : t -> float
(** Mean of the current contents; [0.] when empty. *)

val std : t -> float
(** Population standard deviation of the current contents.  O(n): a
    deliberate two-pass loop (mean, then squared deviations), immune to
    the cancellation a running E[x²] − E[x]² suffers when the mean dwarfs
    the spread. *)

val min : t -> float
(** Smallest current sample; [nan] when empty. O(n). *)

val max : t -> float
(** Largest current sample; [nan] when empty. O(n). *)

val get : t -> int -> float
(** [get t i] is the i-th oldest sample, [0 <= i < length t]. *)

val last : t -> float option
(** Most recently pushed sample. *)

val to_list : t -> float list
(** Contents, oldest first. *)

val fold : t -> init:'a -> f:('a -> float -> 'a) -> 'a
(** Left fold, oldest first. *)
