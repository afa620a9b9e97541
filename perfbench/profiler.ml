(* Sampling layer profiler and GC pause recorder for the traced run.

   The profiler arms ITIMER_PROF; every SIGPROF takes the OCaml call
   stack with [Printexc.get_callstack] (the release build keeps [-g]) and
   charges the sample to layers by source file: a frame in
   [lib/<dir>/...] belongs to layer [<dir>], a frame in [perfbench/] to
   the benchmark ("other").  Stdlib and other library frames carry no
   layer of their own, so the exclusive bucket is the nearest classified
   frame below the top of the stack: a [List.sort] called from
   [lib/stats] counts as stats.  Every sample lands in one of [layers].
   The inclusive share counts a layer once per sample if any of its
   frames is on the stack.

   OCaml runs signal handlers at safe points, so a sample lands on the
   first polling point after the timer tick.  Over thousands of samples
   the shares estimate where host time goes, up to that skid.

   GC pauses come from [Runtime_events]: the span from entering a minor
   collection or major slice to leaving it, nested phases merged. *)

(* The reported buckets; together they cover every sample. *)
let layers =
  [
    "des"; "net"; "raft"; "tuner"; "kv"; "mr"; "stats"; "harness";
    "telemetry"; "check"; "scenarios"; "other";
  ]

(* Library directory under lib/ -> its bucket.  A directory without a
   bucket (lib/parallel: the benchmark runs no extra domains) is charged
   to its nearest caller, like a stdlib frame. *)
let layer_of_dir = function
  | "netsim" -> Some "net"
  | "core" -> Some "tuner"
  | "kvsm" -> Some "kv"
  | "multiraft" -> Some "mr"
  | "cluster" -> Some "harness"
  | dir -> if List.mem dir layers then Some dir else None

let own_file = "perfbench/profiler.ml"

let classify file =
  let n = String.length file in
  if n > 4 && String.sub file 0 4 = "lib/" then
    match String.index_from_opt file 4 '/' with
    | Some j -> layer_of_dir (String.sub file 4 (j - 4))
    | None -> None
  else if n > 10 && String.sub file 0 10 = "perfbench/" then Some "other"
  else None

(* What one return address contributes, cached: a raw entry can stand
   for several source frames when calls were inlined. *)
type entry_info = {
  own : bool;  (* a frame of this profiler (the signal handler) *)
  first : string option;  (* innermost classified frame *)
  in_layers : string list;
}

let info_of_entry entry =
  let files =
    match Printexc.backtrace_slots_of_raw_entry entry with
    | None -> []
    | Some slots ->
        Array.to_list slots
        |> List.filter_map (fun slot ->
               Option.map
                 (fun (l : Printexc.location) -> l.filename)
                 (Printexc.Slot.location slot))
  in
  let classified = List.filter_map classify files in
  {
    own = List.mem own_file files;
    first = (match classified with c :: _ -> Some c | [] -> None);
    in_layers = List.sort_uniq compare classified;
  }

type t = {
  cache : (Printexc.raw_backtrace_entry, entry_info) Hashtbl.t;
  exclusive : (string, int) Hashtbl.t;
  inclusive : (string, int) Hashtbl.t;
  mutable samples : int;
  mutable on_tick : unit -> unit;
}

let create () =
  {
    cache = Hashtbl.create 1024;
    exclusive = Hashtbl.create 16;
    inclusive = Hashtbl.create 16;
    samples = 0;
    on_tick = ignore;
  }

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let info t entry =
  match Hashtbl.find_opt t.cache entry with
  | Some i -> i
  | None ->
      let i = info_of_entry entry in
      Hashtbl.add t.cache entry i;
      i

let record t =
  let entries =
    Printexc.raw_backtrace_entries (Printexc.get_callstack 256)
  in
  let n = Array.length entries in
  (* Skip everything up to and including the handler's own frames. *)
  let start =
    let rec last_own i found =
      if i >= n then found
      else if (info t entries.(i)).own then last_own (i + 1) (i + 1)
      else if found > 0 then found
      else last_own (i + 1) found
    in
    last_own 0 0
  in
  let exclusive = ref None and seen = ref [] in
  for i = start to n - 1 do
    let inf = info t entries.(i) in
    (match (!exclusive, inf.first) with
    | None, Some l -> exclusive := Some l
    | _ -> ());
    List.iter
      (fun l -> if not (List.mem l !seen) then seen := l :: !seen)
      inf.in_layers
  done;
  t.samples <- t.samples + 1;
  bump t.exclusive (Option.value ~default:"other" !exclusive);
  List.iter (bump t.inclusive) !seen

let handler t _signal =
  record t;
  t.on_tick ()

(* Asked-for period; the kernel delivers at its own tick rate at most. *)
let interval = 0.001

let start t =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (handler t));
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval }
      : Unix.interval_timer_status)

let stop () =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. }
      : Unix.interval_timer_status);
  (* A tick already pending must not hit the default action, which
     terminates the process. *)
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let samples t = t.samples

let share tbl t layer =
  if t.samples = 0 then 0.
  else
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl layer))
    /. float_of_int t.samples

let exclusive_share t layer = share t.exclusive t layer
let inclusive_share t layer = share t.inclusive t layer

(* {2 GC pauses} *)

module Gc_pauses = struct
  type tally = {
    mutable depth : int;  (* open top-level phases *)
    mutable since : int64;
    mutable total_ns : int64;
    mutable max_ns : int64;
    mutable pauses : int;
    mutable lost : int;
    mutable counting : bool;
  }

  type t = {
    tally : tally;
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
  }

  let top_level : Runtime_events.runtime_phase -> bool = function
    | EV_MINOR | EV_MAJOR_SLICE | EV_EXPLICIT_GC_MINOR | EV_EXPLICIT_GC_MAJOR
    | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_COMPACT ->
        true
    | _ -> false

  let create () =
    Runtime_events.start ();
    let tally =
      {
        depth = 0;
        since = 0L;
        total_ns = 0L;
        max_ns = 0L;
        pauses = 0;
        lost = 0;
        counting = false;
      }
    in
    let runtime_begin _ ts phase =
      if top_level phase then begin
        if tally.depth = 0 then
          tally.since <- Runtime_events.Timestamp.to_int64 ts;
        tally.depth <- tally.depth + 1
      end
    in
    let runtime_end _ ts phase =
      if top_level phase && tally.depth > 0 then begin
        tally.depth <- tally.depth - 1;
        if tally.depth = 0 && tally.counting then begin
          let d =
            Int64.sub (Runtime_events.Timestamp.to_int64 ts) tally.since
          in
          tally.total_ns <- Int64.add tally.total_ns d;
          if d > tally.max_ns then tally.max_ns <- d;
          tally.pauses <- tally.pauses + 1
        end
      end
    in
    let lost_events _ n = if tally.counting then tally.lost <- tally.lost + n in
    {
      tally;
      cursor = Runtime_events.create_cursor None;
      callbacks =
        Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
          ~lost_events ();
    }

  let poll t =
    ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

  (* Count only the pauses between [resume] and [suspend]. *)
  let resume t =
    poll t;
    t.tally.counting <- true

  let suspend t =
    poll t;
    t.tally.counting <- false

  let total_s t = Int64.to_float t.tally.total_ns /. 1e9
  let max_ms t = Int64.to_float t.tally.max_ns /. 1e6
  let pauses t = t.tally.pauses
  let lost t = t.tally.lost
end
