type t = {
  engine : Des.Engine.t;
  cores : float;
  passthrough : bool;
  mutable busy_until : Des.Time.t;
  mutable busy_total : Des.Time.span;
  (* Charged cost per whole simulated second, for utilization reporting. *)
  per_second : (int, int ref) Hashtbl.t;
}

let make engine ~cores ~passthrough =
  {
    engine;
    cores;
    passthrough;
    busy_until = Des.Time.zero;
    busy_total = 0;
    per_second = Hashtbl.create 64;
  }

let create engine ~cores =
  if cores <= 0. then invalid_arg "Cpu.create: cores must be positive";
  make engine ~cores ~passthrough:false

let passthrough engine = make engine ~cores:1. ~passthrough:true
let is_passthrough t = t.passthrough

(* Attribute [cost] ns of work to the seconds spanned by [start, start+cost).
   The busy window is the *service* window (cost / cores); the charged cost
   is the raw cost so that utilization can exceed 100%% on multi-core
   nodes, matching docker-stats semantics. *)
let account t ~start ~service ~cost =
  t.busy_total <- t.busy_total + cost;
  let sec_len = Des.Time.sec 1 in
  let finish = start + Stdlib.max 1 service in
  let span = finish - start in
  let rec spread at remaining =
    if remaining > 0 then begin
      let sec = at / sec_len in
      let sec_end = (sec + 1) * sec_len in
      let here = Stdlib.min remaining (sec_end - at) in
      (* Charge proportionally to the fraction of the service window that
         falls in this second. *)
      let charged =
        int_of_float
          (float_of_int cost *. float_of_int here /. float_of_int span)
      in
      let cell =
        match Hashtbl.find_opt t.per_second sec with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.add t.per_second sec r;
            r
      in
      cell := !cell + charged;
      spread sec_end (remaining - here)
    end
  in
  spread start span

let enqueue t ~cost =
  let now = Des.Engine.now t.engine in
  let start = Stdlib.max now t.busy_until in
  let service =
    Stdlib.max 0 (int_of_float (float_of_int cost /. t.cores))
  in
  let finish = start + service in
  t.busy_until <- finish;
  if cost > 0 then account t ~start ~service ~cost;
  finish

let execute t ~cost k =
  if t.passthrough then k ()
  else
    let finish = enqueue t ~cost in
    ignore
      (Des.Engine.schedule_at t.engine finish Des.Engine.thunk k () 0
        : Des.Engine.handle)

let charge t ~cost = if not t.passthrough then ignore (enqueue t ~cost : int)

let backlog t =
  Stdlib.max 0 (t.busy_until - Des.Engine.now t.engine)

let busy_total t = t.busy_total

let utilization_series t ~bucket_sec =
  if bucket_sec <= 0. then invalid_arg "Cpu.utilization_series: bucket <= 0";
  let now_sec = Des.Time.to_sec_f (Des.Engine.now t.engine) in
  let buckets = int_of_float (ceil (now_sec /. bucket_sec)) in
  List.init buckets (fun b ->
      let lo = float_of_int b *. bucket_sec in
      let hi = lo +. bucket_sec in
      let busy = ref 0 in
      Hashtbl.iter
        (fun sec r ->
          let s = float_of_int sec in
          if s >= lo && s < hi then busy := !busy + !r)
        t.per_second;
      (lo, float_of_int !busy /. (bucket_sec *. 1e9) *. 100.))

let utilization_in t ~lo_sec ~hi_sec =
  if hi_sec <= lo_sec then invalid_arg "Cpu.utilization_in: empty window";
  let busy = ref 0 in
  Hashtbl.iter
    (fun sec r ->
      let s = float_of_int sec in
      if s >= lo_sec && s < hi_sec then busy := !busy + !r)
    t.per_second;
  float_of_int !busy /. ((hi_sec -. lo_sec) *. 1e9) *. 100.
