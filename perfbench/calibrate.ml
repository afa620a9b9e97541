(* Host speed, measured with a fixed reference kernel.

   The host's CPU speed drifts by up to half within a minute (other
   tenants share its cores), so raw host times of the same code differ
   more between runs than any useful bound.  A run therefore also times
   this kernel before each of its rounds but the first, for about a
   tenth of the last round's wall time, and reports its host times at a
   reference speed: a measured time is multiplied by [reference_s] over
   the kernel's mean time in the run.

   The kernel is the benchmark's own code and uses no library of the
   repository, so a change to the program does not move it; only the
   host does.  It has two parts, in the proportions that tracked the
   program's speed best when the host changed speed
   (perfbench/README.md): pointer chasing through a small persistent
   map with a binary heap of floats, as in the event queue, and a
   string-keyed table of 64-byte values with formatted keys, as in the
   KV store.  A part that stays in cache gains less than the simulator
   from a fast spell, the table part more. *)

module Int_map = Map.Make (Int)

let now = Spans.now

(* About the kernel's time on the baseline host in a fast spell
   (perfbench/README.md); it defines the reference speed. *)
let reference_s = 0.045

let keys = 4096
let strings = Array.init 1024 (fun i -> Printf.sprintf "k%d-%d" (i land 7) i)
let sink = ref 0

let queue_part () =
  let m = ref Int_map.empty in
  let heap = Array.make 1024 0. and size = ref 0 in
  let push x =
    let i = ref !size in
    incr size;
    heap.(!i) <- x;
    while !i > 0 && heap.((!i - 1) / 2) > heap.(!i) do
      let p = (!i - 1) / 2 in
      let t = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- t;
      i := p
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let s = ref !i in
      if l < !size && heap.(l) < heap.(!s) then s := l;
      if r < !size && heap.(r) < heap.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        let t = heap.(!s) in
        heap.(!s) <- heap.(!i);
        heap.(!i) <- t;
        i := !s
      end
    done;
    top
  in
  let acc = ref 0 in
  for i = 0 to 60_000 do
    let k = i * 7919 land (keys - 1) in
    m := Int_map.add k (i, float_of_int i) !m;
    (match Int_map.find_opt (k * 31 land (keys - 1)) !m with
    | Some (j, _) -> acc := !acc + j
    | None -> ());
    acc := !acc + Hashtbl.hash strings.(i land 1023);
    if !size = 1024 then acc := !acc + int_of_float (pop ());
    push (float_of_int ((i * 104729) land 65535))
  done;
  sink := !sink + !acc

(* The store's shape: one of 32768 keys per put, as "c<client>-k<key>",
   with a 64-byte value.  The table is built afresh each time, so it is
   garbage by the time the program runs. *)
let store_keys = 1 lsl 15

let store_part () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 50_000 do
    let k =
      Printf.sprintf "c%d-k%d" (i land 7) ((i * 104729) land (store_keys - 1))
    in
    (match Hashtbl.find_opt h k with
    | Some v -> acc := !acc + String.length v
    | None -> ());
    Hashtbl.replace h k (String.make 64 (Char.chr (97 + (i land 15))))
  done;
  sink := !sink + !acc + Hashtbl.length h

let kernel () =
  queue_part ();
  store_part ()

(* Kernel times of one run, and the wall time of its last round. *)
type t = { mutable samples : float list; mutable round_s : float }

let create () = { samples = []; round_s = 0. }

(* Kernel time per unit of round time. *)
let duty = 0.1

(* Time kernels for [duty] of the last round's time, at least one, and
   none before the first round, whose peak RSS must not include the
   kernel's heap.  The caller compacts the heap first, so the kernel's
   collections do not work through the program's garbage. *)
let run c =
  let spent = ref 0. in
  while c.round_s > 0. && (!spent = 0. || !spent < duty *. c.round_s) do
    let t0 = now () in
    kernel ();
    let dt = now () -. t0 in
    c.samples <- dt :: c.samples;
    spent := !spent +. dt
  done

let mean_s c =
  List.fold_left ( +. ) 0. c.samples /. float_of_int (List.length c.samples)

(* Factor that turns a host time of the run into reference seconds. *)
let scale c = reference_s /. mean_s c
