(* Domain-pool executor. See exec.mli for the determinism contract.

   Layout: tasks live in an array; a mutex/condition work queue hands
   out task indices; each of [jobs] worker domains loops taking indices
   until the queue is closed and drained. Results (or exceptions) are
   written into per-index slots, so distinct workers never write the
   same cell, and the submitter reassembles everything in submission
   order after joining. *)

let configured_jobs : int option ref = ref None

let set_default_jobs n = configured_jobs := Some (if n < 1 then 1 else n)

let default_jobs () =
  match !configured_jobs with
  | Some n -> n
  | None -> (
    match Sys.getenv_opt "EMPOWER_JOBS" with
    | None -> 1
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1))

module Progress = struct
  type snapshot = {
    total : int;
    completed : int;
    running : (int * float) list;
  }

  type reporter = snapshot -> unit

  let current : reporter option ref = ref None

  let set_reporter r = current := r

  let env_enabled () = Env_flag.enabled "EMPOWER_PROGRESS"

  (* One line per event, newest state wins; elapsed times expose the
     stragglers directly (longest-running first). *)
  let stderr_reporter snap =
    let running =
      List.sort (fun (_, a) (_, b) -> compare b a) snap.running
    in
    let frag (i, el) = Printf.sprintf "#%d (%.1fs)" i el in
    Printf.eprintf "[exec] %d/%d done%s\n%!" snap.completed snap.total
      (match running with
      | [] -> ""
      | rs -> ", running: " ^ String.concat " " (List.map frag rs))

  let resolve () =
    match !current with
    | Some _ as r -> r
    | None -> if env_enabled () then Some stderr_reporter else None
end

(* Progress bookkeeping shared by the sequential and parallel paths.
   Pure observation: start/finish marks and the reporter callback never
   touch task results, so output stays bit-identical with a reporter
   installed. Callbacks run in whichever domain finished the task,
   under the tracker's mutex (so a reporter needs no locking of its
   own, but must be quick). *)
let with_progress n run =
  match Progress.resolve () with
  | None -> run (fun _ f -> f ())
  | Some report ->
    let mutex = Mutex.create () in
    let started = Array.make n Float.nan in
    let finished = Array.make n false in
    let completed = ref 0 in
    let snapshot () =
      let now = Unix.gettimeofday () in
      let running = ref [] in
      for i = n - 1 downto 0 do
        if (not finished.(i)) && not (Float.is_nan started.(i)) then
          running := (i, now -. started.(i)) :: !running
      done;
      { Progress.total = n; completed = !completed; running = !running }
    in
    let locked f =
      Mutex.lock mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f
    in
    run (fun i f ->
        locked (fun () ->
            started.(i) <- Unix.gettimeofday ();
            report (snapshot ()));
        let finish () =
          locked (fun () ->
              finished.(i) <- true;
              incr completed;
              report (snapshot ()))
        in
        match f () with
        | y ->
          finish ();
          y
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish ();
          Printexc.raise_with_backtrace e bt)

module Work_queue = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    mutable head : int; (* next index to hand out *)
    mutable limit : int; (* indices < limit are published *)
    mutable closed : bool;
  }

  let create () =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      head = 0;
      limit = 0;
      closed = false;
    }

  let publish t upto =
    Mutex.lock t.mutex;
    t.limit <- upto;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex

  (* Next task index; blocks while the queue is open but empty, returns
     [None] once it is closed and drained. *)
  let take t =
    Mutex.lock t.mutex;
    let rec await () =
      if t.head < t.limit then begin
        let i = t.head in
        t.head <- i + 1;
        Mutex.unlock t.mutex;
        Some i
      end
      else if t.closed then begin
        Mutex.unlock t.mutex;
        None
      end
      else begin
        Condition.wait t.nonempty t.mutex;
        await ()
      end
    in
    await ()
end

(* Explicit left-to-right sequential map: the reference semantics that
   the parallel path must reproduce bit for bit. *)
let seq_map mark f xs =
  let rec go i acc = function
    | [] -> List.rev acc
    | x :: rest ->
      let y = mark i (fun () -> f x) in
      go (i + 1) (y :: acc) rest
  in
  go 0 [] xs

let run_parallel mark jobs f xs =
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  let results = Array.make n None in
  (* Captures the submitter's ambient registry (auto-installing it when
     EMPOWER_METRICS is set) so per-job registries can be folded back
     into it in submission order. *)
  let main_reg = Obs.Runtime.metrics () in
  let job_regs = Array.make n None in
  let run_one i =
    let x = tasks.(i) in
    let task () = mark i (fun () -> f x) in
    let res =
      match main_reg with
      | None -> (
        try Ok (task ()) with e -> Error (e, Printexc.get_raw_backtrace ()))
      | Some _ ->
        (* Fresh registry per job, even when the same worker domain runs
           several jobs back to back. *)
        Obs.Runtime.clear ();
        let reg = Obs.Runtime.install_metrics () in
        let res =
          try Ok (task ()) with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Obs.Runtime.clear ();
        job_regs.(i) <- Some reg;
        res
    in
    results.(i) <- Some res
  in
  let q = Work_queue.create () in
  Work_queue.publish q n;
  Work_queue.close q;
  let worker () =
    let rec loop () =
      match Work_queue.take q with
      | None -> ()
      | Some i ->
        run_one i;
        loop ()
    in
    loop ()
  in
  let domains = Array.init jobs (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  (match main_reg with
  | None -> ()
  | Some into ->
    Array.iter
      (function None -> () | Some reg -> Obs.Metrics.merge ~into reg)
      job_regs);
  (* Earliest submitted failure wins, matching the sequential fold. *)
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ())
    results;
  Array.to_list results
  |> List.map (function
       | Some (Ok y) -> y
       | Some (Error _) | None -> assert false)

let map ?jobs f xs =
  let jobs =
    match jobs with Some j -> (if j < 1 then 1 else j) | None -> default_jobs ()
  in
  let n = List.length xs in
  let jobs = if jobs > n then n else jobs in
  with_progress n (fun mark ->
      if jobs <= 1 then seq_map mark f xs else run_parallel mark jobs f xs)

let mapi ?jobs f xs =
  let indexed = List.mapi (fun i x -> (i, x)) xs in
  map ?jobs (fun (i, x) -> f i x) indexed
