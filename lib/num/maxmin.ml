type result = {
  rates : float array;
  bottleneck : int array;
  fair_share : float array;
}

let validate ~caps ~paths ~weights =
  let n_links = Array.length caps in
  if Array.length paths <> Array.length weights then
    invalid_arg "Maxmin.solve: paths/weights length mismatch";
  Array.iter
    (fun c -> if not (c > 0.) then invalid_arg "Maxmin.solve: non-positive capacity")
    caps;
  Array.iter
    (fun w -> if not (w > 0.) then invalid_arg "Maxmin.solve: non-positive weight")
    weights;
  Array.iter
    (fun path ->
      if Array.length path = 0 then invalid_arg "Maxmin.solve: empty path";
      Array.iter
        (fun l ->
          if l < 0 || l >= n_links then invalid_arg "Maxmin.solve: bad link id")
        path)
    paths

(* Progressive filling: raise the fair-share level of all unfrozen flows
   simultaneously; at each round find the link that saturates first, freeze
   the flows crossing it, and continue. Integer per-link active-flow counts
   (not float weight sums) decide which links still constrain the fill, so
   rounding noise can never leave a phantom constraint that would stall the
   loop. O(rounds * total path length), rounds <= number of links.

   This flow-major scan is the reference the sparse solver below is
   checked against; it allocates freely. *)
let solve ~caps ~paths ~weights =
  validate ~caps ~paths ~weights;
  let n_flows = Array.length paths and n_links = Array.length caps in
  let frozen = Array.make n_flows false
  and rem_cap = Array.copy caps
  and active_weight = Array.make n_links 0.
  and active_count = Array.make n_links 0
  and saturated = Array.make n_links false
  and bottleneck = Array.make n_flows (-1)
  and fair_share = Array.make n_flows 0.
  and rates = Array.make n_flows 0. in
  for i = 0 to n_flows - 1 do
    let path = paths.(i) in
    let w = weights.(i) in
    for k = 0 to Array.length path - 1 do
      let l = path.(k) in
      active_weight.(l) <- active_weight.(l) +. w;
      active_count.(l) <- active_count.(l) + 1
    done
  done;
  let level = ref 0. in
  let n_active = ref n_flows in
  while !n_active > 0 do
    (* Smallest additional fair share that saturates some constraining link. *)
    let delta = ref infinity and argmin = ref (-1) in
    for l = 0 to n_links - 1 do
      if active_count.(l) > 0 then begin
        let d = Float.max 0. (rem_cap.(l) /. active_weight.(l)) in
        if d < !delta then begin
          delta := d;
          argmin := l
        end
      end
    done;
    if !argmin < 0 then begin
      (* No active flow crosses any link: impossible since every flow has a
         non-empty path, but keep a defensive exit. *)
      for i = 0 to n_flows - 1 do
        if not frozen.(i) then begin
          frozen.(i) <- true;
          fair_share.(i) <- !level;
          rates.(i) <- weights.(i) *. !level
        end
      done;
      n_active := 0
    end
    else begin
      let d = !delta in
      level := !level +. d;
      for l = 0 to n_links - 1 do
        if active_count.(l) > 0 then begin
          rem_cap.(l) <- rem_cap.(l) -. (active_weight.(l) *. d);
          if rem_cap.(l) < 0. then rem_cap.(l) <- 0.
        end
      done;
      (* Links saturated at the new level; the argmin link is saturated by
         construction even if rounding left it epsilon above zero. *)
      Array.fill saturated 0 n_links false;
      saturated.(!argmin) <- true;
      for l = 0 to n_links - 1 do
        if active_count.(l) > 0 && rem_cap.(l) <= 1e-9 *. caps.(l) then
          saturated.(l) <- true
      done;
      let froze_any = ref false in
      for i = 0 to n_flows - 1 do
        if not frozen.(i) then begin
          let path = paths.(i) in
          let hit = ref (-1) in
          for k = 0 to Array.length path - 1 do
            let l = path.(k) in
            if saturated.(l) && !hit = -1 then hit := l
          done;
          if !hit >= 0 then begin
            frozen.(i) <- true;
            froze_any := true;
            bottleneck.(i) <- !hit;
            fair_share.(i) <- !level;
            rates.(i) <- weights.(i) *. !level;
            let w = weights.(i) in
            for k = 0 to Array.length path - 1 do
              let l = path.(k) in
              active_weight.(l) <- active_weight.(l) -. w;
              active_count.(l) <- active_count.(l) - 1
            done;
            decr n_active
          end
        end
      done;
      (* The argmin link has at least one unfrozen flow crossing it, so a
         freeze must have happened; assert the loop variant. *)
      assert !froze_any
    end
  done;
  { rates; bottleneck; fair_share }

(* ------------------------------------------------------------------ *)
(* Sparse (CSR/CSC-driven) water-filling over an [Incidence.t].

   Same progressive-filling semantics as [solve], with different
   bookkeeping. The freeze scan is link-major: only the flows on this
   round's saturated links (their CSC columns) are visited, and each
   frozen flow retires its own CSR row. And each live link carries two
   fill levels, with F_l the load of its frozen flows and A_l the weight
   of its active ones:
   - its saturation level s_l = (c_l - F_l) / A_l, the level at which it
     is full;
   - its trip level t_l = (c_l - F_l - 1e-9 c_l) / A_l, the level from
     which [solve]'s 1e-9 tolerance counts it as saturated.
   Both change only when a flow crossing the link freezes.

   The live links (those with active flows) sit unordered in a flat
   slot array, with s_l and t_l in parallel slot-indexed arrays, and a
   link that drains is swap-removed by moving the last slot into its
   place. A round is one sequential pass over the slots that tests only
   t_l <= thr, with thr = max(level, running min of s_l) (+inf until a
   finite s_l is seen). As A_l > 0, t_l <= s_l, so a link that fails
   the test can neither be the argmin nor saturate this round. The hits
   update the argmin (the lowest id with the smallest s_l) and thr. The
   level rises to max(level, min s_l), and the round saturates the
   argmin plus every hit with t_l <= level, sorted ascending by id:
   the saturated links, and so the freeze and retire order, are those
   of an ascending scan of all links. Work is O(rounds * live links)
   single compares plus O(nnz) updates, instead of O(rounds * nnz).

   A_l only loses weight once set up, by one subtraction per retired
   flow, and weights span the 1e-30 floor to 1e300: a heavy flow's
   retirement can cancel A_l to a fraction of its rounding error, or to
   exactly 0 with the light flows' weight absorbed. So a retirement that
   leaves A_l below 2^-12 of its last exact sum makes the round recount
   it from the link's unfrozen flows. Between recounts the subtractions
   err by at most ~2^-53 of that sum each, so A_l stays within about
   (flows on l) * 2^-41 relative, and a level never overshoots a link's
   capacity by more than that. The recount also keeps A_l > 0 on every
   live link, which the one-compare scan relies on.

   In exact arithmetic the rounds, the tie-break and the tolerance are
   those of [solve]. In floating point the levels come from a different
   chain of roundings, so rates agree to ~1e-9 relative, not bitwise.
   [solve] above stays the reference. *)

type sparse_workspace = {
  s_frozen : bool array;  (* n_flows *)
  s_free : float array;  (* n_links; c_l - F_l *)
  s_active_weight : float array;  (* n_links; A_l *)
  s_exact_weight : float array;  (* n_links; A_l at its last exact sum *)
  s_active_count : int array;  (* n_links *)
  s_live : int array;  (* slot -> link; slots [0, n_live) hold the live links *)
  s_slot : int array;  (* n_links; link -> its slot while live *)
  s_sat_level : float array;  (* by slot; s_l *)
  s_trip_level : float array;  (* by slot; t_l *)
  s_saturated : int array;
      (* n_links; this round's hits (as slots), then its saturated
         links, then its links to recount *)
  s_live0 : int array;  (* links some flow crosses, ascending (static per inc) *)
  s_round : int array;  (* n_flows; flows frozen in the current round *)
  s_count0 : int array;  (* n_links; initial active counts (static per inc) *)
  (* Diagnostics of the last solve, read by [Nf_num.Diag]. Ints are
     immediate; the final fill level lives in a 1-element float array
     because a mutable float field of this mixed record would box on
     every store in the hot loop. *)
  mutable s_stat_rounds : int;
  mutable s_stat_saturated : int;
  s_stat_level : float array;  (* length 1 *)
}

let sparse_workspace (inc : Incidence.t) =
  let n_links = inc.Incidence.n_links and n_flows = inc.Incidence.n_flows in
  (* Initial per-link active counts are static for a given incidence
     ([row_cols] is padded to length >= 1, so count within nnz only). *)
  let count0 = Array.make n_links 0 in
  for k = 0 to inc.Incidence.nnz - 1 do
    let l = inc.Incidence.row_cols.(k) in
    count0.(l) <- count0.(l) + 1
  done;
  let n_live0 = ref 0 in
  for l = 0 to n_links - 1 do
    if count0.(l) > 0 then incr n_live0
  done;
  let live0 = Array.make !n_live0 0 and j = ref 0 in
  for l = 0 to n_links - 1 do
    if count0.(l) > 0 then begin
      live0.(!j) <- l;
      incr j
    end
  done;
  {
    s_frozen = Array.make n_flows false;
    s_free = Array.make n_links 0.;
    s_active_weight = Array.make n_links 0.;
    s_exact_weight = Array.make n_links 0.;
    s_active_count = Array.make n_links 0;
    s_live = Array.make n_links 0;
    s_slot = Array.make n_links 0;
    s_sat_level = Array.make n_links 0.;
    s_trip_level = Array.make n_links 0.;
    s_saturated = Array.make n_links 0;
    s_live0 = live0;
    s_round = Array.make n_flows 0;
    s_count0 = count0;
    s_stat_rounds = 0;
    s_stat_saturated = 0;
    s_stat_level = Array.make 1 0.;
  }

let sparse_rounds ws = ws.s_stat_rounds

let sparse_saturated_links ws = ws.s_stat_saturated

let sparse_level ws = ws.s_stat_level.(0)

(* Live link [l]'s saturation and trip levels, from its free capacity
   [f] and active weight [a], stored at its slot. *)
let[@inline] set_levels ws (caps : float array) l f a =
  let s = Array.unsafe_get ws.s_slot l in
  Array.unsafe_set ws.s_sat_level s (f /. a);
  Array.unsafe_set ws.s_trip_level s
    ((f -. (1e-9 *. Array.unsafe_get caps l)) /. a)

let[@nf.hot] solve_sparse ws (inc : Incidence.t)
    ~(weights : Incidence.vec) ~(rates : Incidence.vec) =
  let n_flows = inc.Incidence.n_flows and n_links = inc.Incidence.n_links in
  let row_ptr = inc.Incidence.row_ptr
  and row_cols = inc.Incidence.row_cols
  and col_ptr = inc.Incidence.col_ptr
  and col_rows = inc.Incidence.col_rows
  and caps = inc.Incidence.caps in
  let frozen = ws.s_frozen
  and free = ws.s_free
  and active_weight = ws.s_active_weight
  and exact_weight = ws.s_exact_weight
  and active_count = ws.s_active_count
  and live = ws.s_live
  and slot = ws.s_slot
  and sat_level = ws.s_sat_level
  and trip_level = ws.s_trip_level
  and saturated = ws.s_saturated
  and live0 = ws.s_live0 in
  Array.fill frozen 0 n_flows false;
  Array.fill active_weight 0 n_links 0.;
  Array.blit ws.s_count0 0 active_count 0 n_links;
  (* Flow-major setup sweep, same accumulation order as [solve];
     counts are static and come from the precomputed [s_count0]. *)
  for i = 0 to n_flows - 1 do
    let w = Array.unsafe_get weights i in
    let stop = Array.unsafe_get row_ptr (i + 1) in
    for k = Array.unsafe_get row_ptr i to stop - 1 do
      let l = Array.unsafe_get row_cols k in
      Array.unsafe_set active_weight l (Array.unsafe_get active_weight l +. w)
    done
  done;
  (* Every link with active flows gets a slot, ascending at first. The
     capacities are read here on every solve, never cached: [caps] is
     [Problem.caps], which changes in place. *)
  let n_live0 = Array.length live0 in
  for s = 0 to n_live0 - 1 do
    let l = Array.unsafe_get live0 s in
    Array.unsafe_set live s l;
    Array.unsafe_set slot l s;
    let c = Array.unsafe_get caps l and a = Array.unsafe_get active_weight l in
    Array.unsafe_set free l c;
    Array.unsafe_set exact_weight l a;
    set_levels ws caps l c a
  done;
  ws.s_stat_rounds <- 0;
  ws.s_stat_saturated <- 0;
  let level = ref 0. in
  let n_live = ref n_live0 in
  let n_active = ref n_flows in
  while !n_active > 0 do
    (* One pass over the slots. A slot is a hit iff t_l <= thr; the
       threshold only falls, and never below the final max(level,
       min s_l), so the hits hold the argmin and every link the round
       saturates. The argmin is the smallest s_l, ties to the lowest
       id: [sl <= smin] after [sl < smin] failed is equality. *)
    let lvl = !level in
    let thr = ref infinity and smin = ref infinity and argmin = ref (-1) in
    let n_hit = ref 0 in
    for s = 0 to !n_live - 1 do
      if Array.unsafe_get trip_level s <= !thr then begin
        Array.unsafe_set saturated !n_hit s;
        incr n_hit;
        let sl = Array.unsafe_get sat_level s in
        if sl < !smin then begin
          smin := sl;
          argmin := Array.unsafe_get live s;
          thr := if sl > lvl then sl else lvl
        end
        else if sl <= !smin then begin
          let l = Array.unsafe_get live s in
          if l < !argmin then argmin := l
        end
      end
    done;
    if !argmin < 0 then begin
      (* Defensive: no live link has a saturation level below +inf,
         which only non-finite weights can cause (every flow has a
         non-empty path, and cancelled sums are recounted). Freeze what
         is left at the current level. *)
      for i = 0 to n_flows - 1 do
        if not (Array.unsafe_get frozen i) then begin
          Array.unsafe_set frozen i true;
          Array.unsafe_set rates i (Array.unsafe_get weights i *. lvl)
        end
      done;
      n_active := 0
    end
    else begin
      let lv = if !smin > lvl then !smin else lvl in
      level := lv;
      (* This round's saturated links, insertion-sorted ascending by id
         in place over the hits: the hits whose trip level the new level
         reaches, and the argmin, which saturates by construction even if
         its trip level is above the level (an active weight at <= 0,
         which the recount below prevents, but progress must not depend
         on it). *)
      let am = !argmin in
      let n_sat = ref 0 in
      for k = 0 to !n_hit - 1 do
        let s = Array.unsafe_get saturated k in
        let l = Array.unsafe_get live s in
        if Int.equal l am || Array.unsafe_get trip_level s <= lv then begin
          let j = ref !n_sat in
          while !j > 0 && Array.unsafe_get saturated (!j - 1) > l do
            Array.unsafe_set saturated !j (Array.unsafe_get saturated (!j - 1));
            decr j
          done;
          Array.unsafe_set saturated !j l;
          incr n_sat
        end
      done;
      (* Freeze pass: record this round's flows first, then retire their
         CSR rows — and skip the retirement entirely when nothing stays
         active, which saves the last round's O(nnz) walk. Deferral is
         exact: the retirements only feed later rounds, and the same
         flows are processed in the same order. *)
      let round = ws.s_round in
      let n_round = ref 0 in
      for s = 0 to !n_sat - 1 do
        let l = Array.unsafe_get saturated s in
        let cstop = Array.unsafe_get col_ptr (l + 1) in
        for c = Array.unsafe_get col_ptr l to cstop - 1 do
          let i = Array.unsafe_get col_rows c in
          if not (Array.unsafe_get frozen i) then begin
            Array.unsafe_set frozen i true;
            Array.unsafe_set rates i (Array.unsafe_get weights i *. lv);
            Array.unsafe_set round !n_round i;
            incr n_round
          end
        done
      done;
      (* The argmin link still had at least one unfrozen flow, so some
         freeze must have happened; the loop variant holds. *)
      assert (!n_round > 0);
      ws.s_stat_rounds <- ws.s_stat_rounds + 1;
      ws.s_stat_saturated <- ws.s_stat_saturated + !n_sat;
      n_active := !n_active - !n_round;
      if !n_active > 0 then begin
        (* Retire the round's flows. [saturated] is free again; it
           collects the links to recount, each once: a queued link's
           exact sum is set to -inf until its recount. *)
        let n_recount = ref 0 in
        for r = 0 to !n_round - 1 do
          let i = Array.unsafe_get round r in
          let w = Array.unsafe_get weights i
          and x = Array.unsafe_get rates i in
          let stop = Array.unsafe_get row_ptr (i + 1) in
          for k = Array.unsafe_get row_ptr i to stop - 1 do
            let l = Array.unsafe_get row_cols k in
            let n = Array.unsafe_get active_count l - 1 in
            let a = Array.unsafe_get active_weight l -. w
            and f = Array.unsafe_get free l -. x in
            Array.unsafe_set active_count l n;
            Array.unsafe_set active_weight l a;
            Array.unsafe_set free l f;
            if n > 0 then begin
              set_levels ws caps l f a;
              if a < Array.unsafe_get exact_weight l *. 0x1p-12 then begin
                Array.unsafe_set exact_weight l neg_infinity;
                Array.unsafe_set saturated !n_recount l;
                incr n_recount
              end
            end
            else begin
              (* Drained: the last slot moves into this one. *)
              let s = Array.unsafe_get slot l and last = !n_live - 1 in
              let m = Array.unsafe_get live last in
              Array.unsafe_set live s m;
              Array.unsafe_set slot m s;
              Array.unsafe_set sat_level s (Array.unsafe_get sat_level last);
              Array.unsafe_set trip_level s (Array.unsafe_get trip_level last);
              n_live := last
            end
          done
        done;
        (* Recount after the whole round has retired, so that no flow of
           it is subtracted from a fresh sum. A flow whose path repeats
           the link counts once per repeat, as in the set-up sweep. A
           queued link that drained later in the round has no slot any
           more (another link may hold its old one) and is skipped. *)
        for q = 0 to !n_recount - 1 do
          let l = Array.unsafe_get saturated q in
          if Array.unsafe_get active_count l > 0 then begin
            let a = ref 0. in
            let cstop = Array.unsafe_get col_ptr (l + 1) in
            for c = Array.unsafe_get col_ptr l to cstop - 1 do
              let i = Array.unsafe_get col_rows c in
              if not (Array.unsafe_get frozen i) then begin
                let w = Array.unsafe_get weights i in
                let stop = Array.unsafe_get row_ptr (i + 1) in
                for k = Array.unsafe_get row_ptr i to stop - 1 do
                  if Int.equal (Array.unsafe_get row_cols k) l then a := !a +. w
                done
              end
            done;
            let a = !a in
            Array.unsafe_set active_weight l a;
            Array.unsafe_set exact_weight l a;
            set_levels ws caps l (Array.unsafe_get free l) a
          end
        done
      end
    end
  done;
  ws.s_stat_level.(0) <- !level

let is_maxmin ?(tol = 1e-6) ~caps ~paths ~weights rates =
  validate ~caps ~paths ~weights;
  let n_links = Array.length caps in
  let loads = Array.make n_links 0. in
  Array.iteri
    (fun i path -> Array.iter (fun l -> loads.(l) <- loads.(l) +. rates.(i)) path)
    paths;
  let feasible =
    Array.for_all (fun x -> x >= -1e-9) rates
    &&
    let ok = ref true in
    for l = 0 to n_links - 1 do
      if loads.(l) > caps.(l) *. (1. +. tol) then ok := false
    done;
    !ok
  in
  (* Max share of any flow on link l, normalized by weight. *)
  let max_share = Array.make n_links 0. in
  Array.iteri
    (fun i path ->
      let share = rates.(i) /. weights.(i) in
      Array.iter
        (fun l -> if share > max_share.(l) then max_share.(l) <- share)
        path)
    paths;
  let has_bottleneck i =
    let share = rates.(i) /. weights.(i) in
    Array.exists
      (fun l ->
        loads.(l) >= caps.(l) *. (1. -. tol)
        && share >= max_share.(l) *. (1. -. tol))
      paths.(i)
  in
  feasible
  &&
  let ok = ref true in
  Array.iteri (fun i _ -> if not (has_bottleneck i) then ok := false) paths;
  !ok
