(** Host-speed calibration for wall-clock measurements.

    The benchmark's host shares its cores and memory system with other
    tenants, and the same work's wall time swings by a factor of up to
    two over seconds. {!measure} runs a function while a timer signal
    samples a fixed kernel (random reads over a 16 MB off-heap table, a
    dense sweep over 256 KB and a little allocation) every [period]
    seconds,
    and scales each stretch of time between samples by how slow the
    kernel ran around it. The result reads as seconds on a host where
    the kernel takes {!reference_kernel_s}; work that gets faster on a
    quiet host gets faster by the same share here. *)

val reference_kernel_s : float
(** The kernel time normalized results are expressed against. *)

val period : float
(** Seconds between samples while {!measure} runs. *)

type measurement = {
  raw_s : float;  (** wall time, minus the time spent sampling *)
  scaled_s : float;  (** [raw_s] with each stretch scaled to the reference speed *)
  samples : int;
}

val measure : (unit -> 'a) -> 'a * measurement
(** Run [f] with sampling armed; the timer is disarmed and the previous
    SIGALRM behaviour restored also when [f] raises. *)

val scale : (float * float * float) list -> float * float
(** [scale samples] with [samples] the [(kernel_start, kernel_end,
    kernel_s)] of each sample in time order, first before and last
    after the measured work: the [(raw_s, scaled_s)] of the stretches
    between them. Exposed for tests. *)
