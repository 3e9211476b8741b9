(** On/off switches read from the environment ([EMPOWER_CHECK],
    [EMPOWER_METRICS], [EMPOWER_FLIGHT], [EMPOWER_PROGRESS]). *)

val of_value : string option -> bool
(** The rule every switch follows: unset, [""] and ["0"] are off, any
    other value is on. *)

val enabled : string -> bool
(** [enabled name] applies {!of_value} to the variable [name]. *)
