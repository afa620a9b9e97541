(* Host-time spans around the benchmark's own calls into the layers.

   Only the traced run records them.  A span is aggregated by name into
   a count, a total, a maximum and a log2 histogram of durations, so the
   per-request submit and commit-callback spans cost a few words of
   state, not one record per request.  [report] writes the table at the
   end of the run. *)

type stat = {
  mutable count : int;
  mutable total_s : float;
  mutable max_s : float;
  hist : int array;  (* bucket i: durations in [2^i, 2^(i+1)) ns *)
}

let enabled = ref false
let table : (string, stat) Hashtbl.t = Hashtbl.create 16
let order : string list ref = ref []
(* Monotonic clock with ns resolution (seconds as a float). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let stat name =
  match Hashtbl.find_opt table name with
  | Some s -> s
  | None ->
      let s = { count = 0; total_s = 0.; max_s = 0.; hist = Array.make 40 0 } in
      Hashtbl.add table name s;
      order := name :: !order;
      s

let record name dt =
  let s = stat name in
  s.count <- s.count + 1;
  s.total_s <- s.total_s +. dt;
  if dt > s.max_s then s.max_s <- dt;
  let ns = dt *. 1e9 in
  let b = if ns < 1. then 0 else min 39 (int_of_float (Float.log2 ns)) in
  s.hist.(b) <- s.hist.(b) + 1

let time name f =
  if not !enabled then f ()
  else
    let t0 = now () in
    let r = f () in
    record name (now () -. t0);
    r

let mean_ns name =
  match Hashtbl.find_opt table name with
  | Some s when s.count > 0 -> s.total_s *. 1e9 /. float_of_int s.count
  | _ -> 0.

let report oc =
  Printf.fprintf oc "%-22s %9s %11s %11s %11s  log2(ns) histogram\n" "span"
    "count" "total_s" "mean_us" "max_us";
  List.iter
    (fun name ->
      let s = Hashtbl.find table name in
      let buckets =
        Array.to_list s.hist
        |> List.mapi (fun i c -> (i, c))
        |> List.filter (fun (_, c) -> c > 0)
        |> List.map (fun (i, c) -> Printf.sprintf "%d:%d" i c)
      in
      Printf.fprintf oc "%-22s %9d %11.4f %11.3f %11.3f  %s\n" name s.count
        s.total_s
        (s.total_s *. 1e6 /. float_of_int (max 1 s.count))
        (s.max_s *. 1e6) (String.concat " " buckets))
    (List.rev !order)
