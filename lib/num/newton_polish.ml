(* Active-set Newton polish of a carried price vector (DESIGN.md "Warm
   restart"). Given the prices an xWI state carries across a flow-churn
   delta and the rates they induce (the carried start), guess the set A
   of links that are full at the new optimum, then solve for prices on A
   alone that fill every link of A exactly:

     F_l(p) = Σ_{i ∋ l} x_i(P_i) - c_l = 0   for l ∈ A,
     P_i = Σ_{l ∈ L(i) ∩ A} p_l,  x_i(P) = U_i'^-1(P).

   Each Newton solve first tries one proportional price step ([scale]):
   p_l (load_l / c_l)^α_l on every priced link of A whose flows share
   one α, kept only if the merit Σ (F_l / c_l)² strictly falls. A flow
   whose only priced link is l has x ∝ p_l^(-1/α), so the step fills
   every link whose flows cross no other priced link exactly, with no
   factorization; after a one-flow delta that is often all of A.

   The Jacobian is -R_A D R_Aᵀ with D_i = -dx_i/dP_i > 0, so a Newton
   step solves the positive semi-definite system M Δ = F, M = R_A D R_Aᵀ,
   by a Cholesky over |A| (dense storage, sparse work). A and its
   elimination order are fixed for a whole Newton solve, so the factor's
   nonzero pattern is computed once per solve ([symbolic]) and every
   factorization clears, assembles and updates only that pattern.

   A is then corrected by a primal-dual active-set loop ([rounds]): a
   solve ends at the first accepted step that leaves a link of A priced
   below zero (or converges with one, or fails where M is singular with
   links the full step would price below zero), and those links are
   dropped and the rest re-solved; a converged solve whose rates x(P_A)
   overload a link outside A adds that link at price 0 and re-solves.
   One budget of Newton steps bounds the whole loop. Every buffer
   lives in the workspace and grows on demand only, so a polish
   allocates nothing once the workspace has seen a problem and an active
   set of its size: floats go through float arrays, never through refs,
   records or results that would box them. *)

module Metrics = Nf_util.Metrics

type t = {
  mutable capacity : int;  (* the |A| the |A|-sized buffers hold *)
  mutable mark : int array;  (* n_links; -1 outside A, else a tag/position *)
  mutable start : float array;  (* n_links; per-link starting price *)
  mutable loads : float array;  (* n_links; loads of the carried rates, of x(P_A) *)
  mutable active : int array;  (* |A| link ids *)
  mutable p : float array;  (* |A| prices *)
  mutable trial : float array;  (* |A| line-search prices *)
  mutable alpha : float array;
      (* |A|; the α every flow crossing a position shares, nan if they
         mix α, unset (0) until its first flow; filled unless [log_only] *)
  mutable log_only : bool;  (* every utility is [Log]: each α is 1 *)
  mutable f : float array;  (* |A| residuals F *)
  mutable dir : float array;  (* |A| Newton direction *)
  mutable m : float array;  (* |A|²; M, then its Cholesky factor *)
  mutable col : float array;  (* |A|; one column of the factor *)
  mutable deg : int array;  (* n_links; M's row counts *)
  mutable head : int array;  (* n_flows; collapse chains' heads *)
  mutable chain : int array;  (* n_links; collapse chains, then stamps *)
  mutable rep : int array;  (* n_links; a collapse class's kept link *)
  mutable sptr : int array;  (* |A| + 1; the factor's pattern (CSC) *)
  mutable srows : int array;  (* its rows below the diagonal, ascending *)
  mutable lptr : int array;  (* |A| + 1; the factor's columns (CSC) *)
  mutable lrows : int array;  (* their nonzero rows below the diagonal *)
  mutable fptr : int array;  (* n_flows + 1; flow -> A positions (CSR) *)
  mutable fpos : int array;  (* nnz *)
  mutable tptr : int array;  (* |A| + 1; A position -> flows (CSC) *)
  mutable tflows : int array;  (* nnz *)
  mutable kids : int array;  (* |A|; first elimination-tree child *)
  mutable sibling : int array;  (* |A|; next child of the same parent *)
  mutable x : float array;  (* n_flows; rates at the current P *)
  mutable d : float array;  (* n_flows; -dx/dP at the current P *)
  mutable steps : int;  (* Newton steps this polish has taken *)
  norms : float array;
      (* [evaluate]'s results, merit and max |F_l| / c_l: stored in a
         float array, they are not boxed *)
}

let create () =
  {
    capacity = 0;
    mark = [||];
    start = [||];
    loads = [||];
    active = [||];
    p = [||];
    trial = [||];
    alpha = [||];
    log_only = true;
    f = [||];
    dir = [||];
    m = [||];
    col = [||];
    deg = [||];
    head = [||];
    chain = [||];
    rep = [||];
    sptr = [||];
    srows = [||];
    lptr = [||];
    lrows = [||];
    fptr = [||];
    fpos = [||];
    tptr = [||];
    tflows = [||];
    kids = [||];
    sibling = [||];
    x = [||];
    d = [||];
    steps = 0;
    norms = [| 0.; 0. |];
  }

(* The rules and bounds of DESIGN.md "Warm restart". *)
let price_floor = 1e-3  (* A holds the links priced above this × p_max *)

let saturation_tol = 1e-9  (* the water-fill's own saturation tolerance *)

let ridge = 1e-8  (* relative, on M's diagonal *)

let tol = 1e-12  (* max |F_l| / c_l at which a solve has converged *)

let max_newton = 20

let max_halvings = 40

let max_steps = 160  (* Newton steps per polish, over every add and drop *)

(* Dense Cholesky is O(|A|³): past this the polish costs more than the
   xWI iterations it saves, so larger active sets keep the carried
   start, and [Xwi_core.init] skips the polish on problems with more
   busy links. *)
let max_active = 256

let m_added =
  Metrics.counter Metrics.global
    ~help:"Links the polish (cold and warm starts) added to its active set (overloaded by x(P_A))"
    "nf_xwi_polish_added_links_total"

let m_retries =
  Metrics.counter Metrics.global
    ~help:"Failed Newton solves of the polish (cold and warm starts) retried without their negatively priced links"
    "nf_xwi_polish_retries_total"

let m_steps =
  Metrics.counter Metrics.global
    ~help:"Newton steps (numeric factorizations) of the polish, cold and warm starts"
    "nf_xwi_polish_newton_steps_total"

let floats a n = if Array.length a >= n then a else Array.make n 0.

let ints a n = if Array.length a >= n then a else Array.make n 0

(* Grow the |A|-sized buffers to hold an active set of [n] links, by at
   least half their size, so an active set that grows by a link or two
   at a time reallocates rarely. *)
let reserve ws n =
  if n > ws.capacity then begin
    let c = max n (ws.capacity + (ws.capacity / 2)) in
    ws.capacity <- c;
    ws.p <- Array.make c 0.;
    ws.trial <- Array.make c 0.;
    ws.alpha <- Array.make c 0.;
    ws.f <- Array.make c 0.;
    ws.dir <- Array.make c 0.;
    ws.m <- Array.make (c * c) 0.;
    ws.sptr <- Array.make (c + 1) 0;
    ws.srows <- Array.make (c * c) 0;
    ws.tptr <- Array.make (c + 1) 0;
    ws.kids <- Array.make c 0;
    ws.sibling <- Array.make c 0;
    ws.lptr <- Array.make (c + 1) 0;
    ws.lrows <- Array.make (c * c) 0
  end

(* A loop rather than [Array.for_all]: [resize] asks on every warm
   restart, and the closure would be allocated on each call. *)
let eligible problem =
  let inc = Problem.incidence problem and utils = Problem.utilities problem in
  let ok = ref inc.Incidence.singleton and g = ref 0 in
  while !ok && !g < inc.Incidence.n_groups do
    (match utils.(!g) with
    | Utility.Log _ | Utility.Power _ -> ()
    | Utility.Opaque _ -> ok := false);
    incr g
  done;
  !ok

(* Whether links [a] and [b] carry the same flows (the same CSC column). *)
let same_column (inc : Incidence.t) a b =
  let col_ptr = inc.Incidence.col_ptr and col_rows = inc.Incidence.col_rows in
  let sa = col_ptr.(a) and sb = col_ptr.(b) in
  let n = col_ptr.(a + 1) - sa in
  Int.equal n (col_ptr.(b + 1) - sb)
  &&
  let k = ref 0 in
  while !k < n && Int.equal col_rows.(sa + !k) col_rows.(sb + !k) do
    incr k
  done;
  Int.equal !k n

(* Elimination order: the links still in A ([mark >= 0]) by the number
   of nonzeros in their row of M (the other links of A their flows
   cross), fewest first, then by id. A static minimum-degree order: the
   host links, whose rows are short, go before the densely coupled
   fabric links, so the factorization's fill stays in the last block. *)
let order ws (inc : Incidence.t) =
  let n_links = inc.Incidence.n_links in
  let col_ptr = inc.Incidence.col_ptr and col_rows = inc.Incidence.col_rows in
  let row_ptr = inc.Incidence.row_ptr and row_cols = inc.Incidence.row_cols in
  (* [chain] is free once the collapse is done: it holds the stamps. *)
  let stamp = ws.chain and deg = ws.deg and n = ref 0 in
  Array.fill stamp 0 n_links (-1);
  for l = 0 to n_links - 1 do
    if ws.mark.(l) >= 0 then begin
      ws.active.(!n) <- l;
      incr n;
      let count = ref 0 in
      for q = col_ptr.(l) to col_ptr.(l + 1) - 1 do
        let i = col_rows.(q) in
        for j = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          let l' = row_cols.(j) in
          if ws.mark.(l') >= 0 && stamp.(l') <> l then begin
            stamp.(l') <- l;
            incr count
          end
        done
      done;
      deg.(l) <- !count
    end
  done;
  let n = !n and a = ws.active in
  for k = 1 to n - 1 do
    let v = a.(k) in
    let j = ref k in
    while
      !j > 0
      &&
      let u = a.(!j - 1) in
      deg.(u) > deg.(v) || (Int.equal deg.(u) deg.(v) && u > v)
    do
      a.(!j) <- a.(!j - 1);
      decr j
    done;
    a.(!j) <- v
  done;
  n

(* Number the links still in A 0 .. m-1 in {!order}, load their
   starting prices into [p], and build the flow -> A position rows (a
   link the path repeats appears once per traversal), and, unless every
   utility is [Log], each position's shared α for {!scale}. Returns m,
   or -1 if some flow crosses no link of A (its rate would be
   unbounded). *)
let index ws (inc : Incidence.t) (utils : Utility.t array) =
  let n_flows = inc.Incidence.n_flows in
  let m = order ws inc in
  for k = 0 to m - 1 do
    let l = ws.active.(k) in
    ws.mark.(l) <- k;
    ws.p.(k) <- ws.start.(l)
  done;
  let row_ptr = inc.Incidence.row_ptr and row_cols = inc.Incidence.row_cols in
  let nnz = ref 0 and covered = ref true and log_only = ws.log_only in
  if not log_only then Array.fill ws.alpha 0 m 0.;
  for i = 0 to n_flows - 1 do
    ws.fptr.(i) <- !nnz;
    let a =
      if log_only then 1.
      else
        match utils.(i) with
        | Utility.Log _ -> 1.
        | Utility.Power { alpha; _ } -> alpha
        | Utility.Opaque _ -> nan
    in
    for j = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let k = ws.mark.(row_cols.(j)) in
      if k >= 0 then begin
        ws.fpos.(!nnz) <- k;
        incr nnz;
        if not log_only then begin
          let seen = ws.alpha.(k) in
          if Float.equal seen 0. then ws.alpha.(k) <- a
          else if not (Float.equal seen a) then ws.alpha.(k) <- nan
        end
      end
    done;
    if Int.equal !nnz ws.fptr.(i) then covered := false
  done;
  ws.fptr.(n_flows) <- !nnz;
  if !covered then m else -1

(* Path prices, rates, D and F at prices [p]. Sets [norms] to the merit
   Σ (F_l / c_l)² and max |F_l| / c_l, both infinity at the first path
   price that is not positive and finite (the rates are then undefined,
   and the line search rejects the trial), leaving F, x and D partial. *)
let evaluate ws (inc : Incidence.t) (utils : Utility.t array) m p =
  let n_flows = inc.Incidence.n_flows and caps = inc.Incidence.caps in
  let ok = ref true and next = ref 0 in
  Array.fill ws.f 0 m 0.;
  while !ok && !next < n_flows do
    let i = !next in
    let lo = ws.fptr.(i) and hi = ws.fptr.(i + 1) in
    let pp = ref 0. in
    for j = lo to hi - 1 do
      pp := !pp +. p.(ws.fpos.(j))
    done;
    let pp = !pp in
    if pp > 0. && pp < infinity then begin
      let u = utils.(i) in
      let x = Utility.rate_from_price u pp in
      ws.x.(i) <- x;
      (* D = -dx/dp = x / (alpha pp) for an alpha-fair U'^-1. *)
      (match u with
      | Utility.Log _ -> ws.d.(i) <- x /. pp
      | Utility.Power { alpha; _ } -> ws.d.(i) <- x /. (alpha *. pp)
      | Utility.Opaque _ -> ok := false);
      for j = lo to hi - 1 do
        let k = ws.fpos.(j) in
        ws.f.(k) <- ws.f.(k) +. x
      done
    end
    else ok := false;
    incr next
  done;
  let merit = ref 0. and worst = ref 0. in
  if !ok then
    for k = 0 to m - 1 do
      let c = caps.(ws.active.(k)) in
      let fk = ws.f.(k) -. c in
      ws.f.(k) <- fk;
      let r = Float.abs fk /. c in
      merit := !merit +. (r *. r);
      if r > !worst || Float.is_nan r then worst := r
    done;
  if !ok && Float.is_finite !merit then begin
    ws.norms.(0) <- !merit;
    ws.norms.(1) <- !worst
  end
  else begin
    ws.norms.(0) <- infinity;
    ws.norms.(1) <- infinity
  end

(* The nonzero pattern of M's Cholesky factor for the active set
   numbered by [index] (size [m]): column j's rows below the diagonal,
   ascending, in [srows.(sptr.(j) .. sptr.(j+1) - 1)]. Column j holds
   the rows of M's column j (the positions that share a flow with j) and
   those of its elimination-tree children's columns, less j itself; a
   column's parent is its first row. One pass in column order builds it,
   with [chain] (free once the collapse is done) as the stamps. *)
let symbolic ws (inc : Incidence.t) m =
  let n_flows = inc.Incidence.n_flows in
  let fptr = ws.fptr and fpos = ws.fpos in
  let tptr = ws.tptr and tflows = ws.tflows in
  (* The transpose of [fptr]/[fpos], by counting; [tptr.(k)] is position
     k's cursor in the fill, then shifted back to the column starts. *)
  Array.fill tptr 0 (m + 1) 0;
  for u = 0 to fptr.(n_flows) - 1 do
    let k = fpos.(u) in
    tptr.(k + 1) <- tptr.(k + 1) + 1
  done;
  for k = 0 to m - 1 do
    tptr.(k + 1) <- tptr.(k + 1) + tptr.(k)
  done;
  for i = 0 to n_flows - 1 do
    for u = fptr.(i) to fptr.(i + 1) - 1 do
      let k = fpos.(u) in
      tflows.(tptr.(k)) <- i;
      tptr.(k) <- tptr.(k) + 1
    done
  done;
  for k = m downto 1 do
    tptr.(k) <- tptr.(k - 1)
  done;
  tptr.(0) <- 0;
  let stamp = ws.chain and kids = ws.kids and sibling = ws.sibling in
  let sptr = ws.sptr and srows = ws.srows and q = ref 0 in
  Array.fill stamp 0 m (-1);
  Array.fill kids 0 m (-1);
  for j = 0 to m - 1 do
    let lo = !q in
    sptr.(j) <- lo;
    stamp.(j) <- j;
    for t = tptr.(j) to tptr.(j + 1) - 1 do
      let i = tflows.(t) in
      for u = fptr.(i) to fptr.(i + 1) - 1 do
        let r = fpos.(u) in
        if r > j && stamp.(r) <> j then begin
          stamp.(r) <- j;
          srows.(!q) <- r;
          incr q
        end
      done
    done;
    (* A child's rows are all above j but for j itself, stamped above. *)
    let c = ref kids.(j) in
    while !c >= 0 do
      for u = sptr.(!c) to sptr.(!c + 1) - 1 do
        let r = srows.(u) in
        if stamp.(r) <> j then begin
          stamp.(r) <- j;
          srows.(!q) <- r;
          incr q
        end
      done;
      c := sibling.(!c)
    done;
    for u = lo + 1 to !q - 1 do
      let r = srows.(u) in
      let v = ref u in
      while !v > lo && srows.(!v - 1) > r do
        srows.(!v) <- srows.(!v - 1);
        decr v
      done;
      srows.(!v) <- r
    done;
    if !q > lo then begin
      let parent = srows.(lo) in
      sibling.(j) <- kids.(parent);
      kids.(parent) <- j
    end
  done;
  sptr.(m) <- !q

(* M = R_A D R_Aᵀ (lower triangle, ridged), factored in place as L Lᵀ
   (right-looking: each column of L updates the trailing block through
   its nonzero rows only, so the work follows the fill, not |A|³);
   false on a pivot that is not positive and finite. Only the
   [symbolic] pattern is cleared and read: nothing outside it is ever
   written, so the dense storage elsewhere may hold any stale value. A
   pattern entry that cancels to exactly zero is left out of [lrows],
   as a dense scan of the column would leave it out, so the arithmetic
   is that of the dense factorization, operation for operation. *)
let factor ws (inc : Incidence.t) m =
  let a = ws.m and col = ws.col and sptr = ws.sptr and srows = ws.srows in
  for j = 0 to m - 1 do
    a.((j * m) + j) <- 0.;
    for u = sptr.(j) to sptr.(j + 1) - 1 do
      a.((srows.(u) * m) + j) <- 0.
    done
  done;
  for i = 0 to inc.Incidence.n_flows - 1 do
    let lo = ws.fptr.(i) and hi = ws.fptr.(i + 1) and di = ws.d.(i) in
    for u = lo to hi - 1 do
      let r = ws.fpos.(u) in
      for v = lo to hi - 1 do
        let c = ws.fpos.(v) in
        if c <= r then a.((r * m) + c) <- a.((r * m) + c) +. di
      done
    done
  done;
  for k = 0 to m - 1 do
    a.((k * m) + k) <- a.((k * m) + k) *. (1. +. ridge)
  done;
  let ok = ref true and j = ref 0 and q = ref 0 in
  let lptr = ws.lptr and lrows = ws.lrows in
  while !ok && !j < m do
    let jj = !j in
    let d = a.((jj * m) + jj) in
    lptr.(jj) <- !q;
    if d > 0. && d < infinity then begin
      let pivot = sqrt d in
      a.((jj * m) + jj) <- pivot;
      let lo = !q in
      for s = sptr.(jj) to sptr.(jj + 1) - 1 do
        let r = srows.(s) in
        let v = a.((r * m) + jj) in
        if v > 0. || v < 0. then begin
          let v = v /. pivot in
          a.((r * m) + jj) <- v;
          col.(r) <- v;
          lrows.(!q) <- r;
          incr q
        end
      done;
      for u = lo to !q - 1 do
        let r = Array.unsafe_get lrows u in
        let lr = Array.unsafe_get col r and rr = r * m in
        for w = lo to u do
          let c = Array.unsafe_get lrows w in
          Array.unsafe_set a (rr + c)
            (Array.unsafe_get a (rr + c) -. (lr *. Array.unsafe_get col c))
        done
      done
    end
    else ok := false;
    incr j
  done;
  lptr.(m) <- !q;
  !ok

(* [dir] := M⁻¹ F by the two triangular solves on the factor, over its
   nonzeros only. *)
let solve_factored ws m =
  let a = ws.m and y = ws.dir and lptr = ws.lptr and lrows = ws.lrows in
  Array.blit ws.f 0 y 0 m;
  for j = 0 to m - 1 do
    let yj = y.(j) /. a.((j * m) + j) in
    y.(j) <- yj;
    for u = lptr.(j) to lptr.(j + 1) - 1 do
      let r = Array.unsafe_get lrows u in
      Array.unsafe_set y r
        (Array.unsafe_get y r -. (Array.unsafe_get a ((r * m) + j) *. yj))
    done
  done;
  for j = m - 1 downto 0 do
    let s = ref y.(j) in
    for u = lptr.(j) to lptr.(j + 1) - 1 do
      let r = Array.unsafe_get lrows u in
      s := !s -. (Array.unsafe_get a ((r * m) + j) *. Array.unsafe_get y r)
    done;
    y.(j) <- !s /. a.((j * m) + j)
  done

(* The proportional step's trial, from the F of [evaluate] at [p]:
   each position priced above zero moves to p_k (load_k / c_k)^α_k,
   load_k = F_k + c_k, when its flows share one α_k, and stays put when
   they mix α. A flow whose only priced link is l has rate ∝ p_l^(-1/α),
   so a link whose flows cross no other priced link is full at the
   trial. Prices keep their sign. *)
let scale ws (inc : Incidence.t) m =
  let caps = inc.Incidence.caps and log_only = ws.log_only in
  for k = 0 to m - 1 do
    let p = ws.p.(k) and c = caps.(ws.active.(k)) in
    let a = if log_only then 1. else ws.alpha.(k) in
    let ratio = (ws.f.(k) +. c) /. c in
    ws.trial.(k) <-
      (if not (p > 0.) || Float.is_nan a then p
       else if Float.equal a 1. then p *. ratio
       else p *. (ratio ** a))
  done

(* Whether some link of A is priced below zero. *)
let any_negative ws m =
  let k = ref 0 in
  while !k < m && ws.p.(!k) >= 0. do
    incr k
  done;
  !k < m

(* Damped Newton on [ws.p], after the proportional step ([scale]) when
   that strictly lowers the merit Σ (F_l / c_l)²; true once
   max |F_l| / c_l <= [tol], so a start the step fills builds no pattern
   and no factor. Where M is regular, the step -J⁻¹F is a descent
   direction of the merit, so halving it until the merit falls (Armijo,
   1e-4) terminates short of the noise floor. The solve also ends,
   unconverged, at the first accepted step that prices a link of A below
   zero: such a link usually cannot be full beside the others, so
   [rounds] drops it at once rather than after [max_newton] steps. Where
   M is singular (the flows of a link of A are exactly those of other
   links of A), the ridged step runs far along the null direction, which
   moves no path price, and no halving lowers the merit: that solve
   fails with the links the full step prices below zero priced there,
   so [rounds] drops them the same way. Every step counts against the
   polish's [max_steps]. *)
let newton ws inc utils m =
  evaluate ws inc utils m ws.p;
  let merit = ref ws.norms.(0) and rmax = ref ws.norms.(1) in
  let it = ref 0 and live = ref (!merit < infinity) in
  if !live && !rmax > tol then begin
    scale ws inc m;
    evaluate ws inc utils m ws.trial;
    if ws.norms.(0) < !merit then begin
      Array.blit ws.trial 0 ws.p 0 m;
      merit := ws.norms.(0);
      rmax := ws.norms.(1)
    end
    else evaluate ws inc utils m ws.p
  end;
  if !live && !rmax > tol then symbolic ws inc m;
  while !live && !rmax > tol && !it < max_newton && ws.steps < max_steps do
    incr it;
    ws.steps <- ws.steps + 1;
    if not (factor ws inc m) then live := false
    else begin
      solve_factored ws m;
      let t = ref 1. and accepted = ref false and halvings = ref 0 in
      while (not !accepted) && !halvings <= max_halvings do
        for k = 0 to m - 1 do
          ws.trial.(k) <- ws.p.(k) +. (!t *. ws.dir.(k))
        done;
        evaluate ws inc utils m ws.trial;
        if ws.norms.(0) <= (1. -. (2e-4 *. !t)) *. !merit then accepted := true
        else begin
          t := !t *. 0.5;
          incr halvings
        end
      done;
      if !accepted then begin
        (* [evaluate] left F, x and D at the accepted trial. *)
        Array.blit ws.trial 0 ws.p 0 m;
        merit := ws.norms.(0);
        rmax := ws.norms.(1);
        if !rmax > tol && any_negative ws m then live := false
      end
      else begin
        for k = 0 to m - 1 do
          let full = ws.p.(k) +. ws.dir.(k) in
          if full < 0. then ws.p.(k) <- full
        done;
        live := false
      end
    end
  done;
  !rmax <= tol

(* Collapse the links of A whose columns are identical: only the
   smallest capacity of such a class can be full, and their rows of M are
   equal. Identical columns start with the same flow, so the classes are
   found along per-flow chains of each class's first (lowest-id) link,
   [head] and [chain]; [rep] holds the link a class keeps so far, which
   starts at the class's summed price, so no flow's path price moves.
   Returns |A|. *)
let collapse ws (inc : Incidence.t) =
  let n_links = inc.Incidence.n_links and caps = inc.Incidence.caps in
  let col_ptr = inc.Incidence.col_ptr and col_rows = inc.Incidence.col_rows in
  let head = ws.head and chain = ws.chain and rep = ws.rep in
  Array.fill head 0 inc.Incidence.n_flows (-1);
  let n = ref 0 in
  for l = 0 to n_links - 1 do
    if ws.mark.(l) >= 0 then begin
      let h = col_rows.(col_ptr.(l)) in
      let first = ref head.(h) in
      while !first >= 0 && not (same_column inc !first l) do
        first := chain.(!first)
      done;
      if !first < 0 then begin
        chain.(l) <- head.(h);
        head.(h) <- l;
        rep.(l) <- l;
        incr n
      end
      else begin
        let kept = rep.(!first) in
        (* Ascending ids: on equal capacities the kept link stays. *)
        let keep = if caps.(l) < caps.(kept) then l else kept in
        let drop = if Int.equal keep l then kept else l in
        ws.start.(keep) <- ws.start.(keep) +. ws.start.(drop);
        ws.mark.(drop) <- -1;
        rep.(!first) <- keep
      end
    end
  done;
  !n

(* Drop the links of A that the last solve left negatively priced, and
   keep the others' prices as the next solve's start. Returns how many
   were dropped. *)
let drop_negative ws m =
  let dropped = ref 0 in
  for k = 0 to m - 1 do
    if ws.p.(k) < 0. then begin
      incr dropped;
      ws.mark.(ws.active.(k)) <- -1
    end
    else ws.start.(ws.active.(k)) <- ws.p.(k)
  done;
  !dropped

(* Add to A, at price 0, every busy link outside it that the rates
   x(P_A) of the last, converged solve load above its capacity by more
   than [saturation_tol]. O(nnz). Returns how many were added. *)
let add_overloaded ws (inc : Incidence.t) =
  let caps = inc.Incidence.caps and col_ptr = inc.Incidence.col_ptr in
  let loads = ws.loads in
  Incidence.link_loads_into inc ~rates:ws.x ~out:loads;
  let added = ref 0 in
  for l = 0 to inc.Incidence.n_links - 1 do
    if ws.mark.(l) < 0
       && col_ptr.(l + 1) > col_ptr.(l)
       && loads.(l) > caps.(l) +. (saturation_tol *. caps.(l))
    then begin
      incr added;
      ws.mark.(l) <- 0;
      ws.start.(l) <- 0.
    end
  done;
  !added

(* The primal-dual active-set loop over the [n] links marked in A,
   within [max_steps] Newton steps in all: number A, solve; drop the
   links the solve left negatively priced, whether it converged or
   stopped at the first negative price, and re-solve; after a converged
   solve with none negative, add the links x(P_A) overloads (collapsed
   onto A as above) and re-solve, or succeed if there are none. A failed
   solve with no negative price fails the polish, as does a spent step
   budget with A still to correct, an A that leaves a flow uncovered or
   one that outgrows [max_active]. *)
let rec rounds ws inc utils n =
  let m = if n > 0 && n <= max_active then (reserve ws n; index ws inc utils) else -1 in
  m > 0
  &&
  let converged = newton ws inc utils m in
  let dropped = drop_negative ws m in
  if dropped > 0 then begin
    if not converged then Metrics.incr m_retries;
    ws.steps < max_steps && rounds ws inc utils (m - dropped)
  end
  else
    converged
    &&
    let added = add_overloaded ws inc in
    Int.equal added 0
    || begin
         Metrics.add m_added added;
         ws.steps < max_steps && rounds ws inc utils (collapse ws inc)
       end

let solve ws problem ~prices ~carried ~rates ~out =
  let inc = Problem.incidence problem in
  let n_links = inc.Incidence.n_links and n_flows = inc.Incidence.n_flows in
  if Array.length prices <> n_links || Array.length out <> n_links then
    invalid_arg "Newton_polish.solve: prices length";
  let utils = Problem.utilities problem in
  ws.mark <- ints ws.mark n_links;
  ws.start <- floats ws.start n_links;
  ws.loads <- floats ws.loads n_links;
  ws.active <- ints ws.active n_links;
  ws.deg <- ints ws.deg n_links;
  ws.head <- ints ws.head n_flows;
  ws.chain <- ints ws.chain n_links;
  ws.rep <- ints ws.rep n_links;
  ws.col <- floats ws.col n_links;
  ws.fptr <- ints ws.fptr (n_flows + 1);
  ws.fpos <- ints ws.fpos inc.Incidence.nnz;
  ws.tflows <- ints ws.tflows inc.Incidence.nnz;
  ws.x <- floats ws.x n_flows;
  ws.d <- floats ws.d n_flows;
  let col_ptr = inc.Incidence.col_ptr and caps = inc.Incidence.caps in
  let row_ptr = inc.Incidence.row_ptr and row_cols = inc.Incidence.row_cols in
  (* A: the links priced above [price_floor] × p_max (tag 0)... *)
  let p_max = ref 0. in
  for l = 0 to n_links - 1 do
    if prices.(l) > !p_max then p_max := prices.(l)
  done;
  let p_max = !p_max in
  for l = 0 to n_links - 1 do
    let busy = col_ptr.(l + 1) > col_ptr.(l) in
    ws.mark.(l) <- (if busy && prices.(l) > price_floor *. p_max then 0 else -1);
    ws.start.(l) <- prices.(l)
  done;
  (* ... plus, for each flow crossing none of them, its lowest-id link
     that the carried water-fill saturated (tag 1), started at no less
     than the flow's marginal utility at its carried rate. The carried
     rates are asked for at the first such flow, and only then. *)
  let ok = ref true and fetched = ref false and carried_rates = ref [||] in
  let log_only = ref true in
  for i = 0 to n_flows - 1 do
    (match utils.(i) with
    | Utility.Log _ -> ()
    | Utility.Power _ | Utility.Opaque _ -> log_only := false);
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    let covered = ref false in
    for j = lo to hi - 1 do
      if Int.equal ws.mark.(row_cols.(j)) 0 then covered := true
    done;
    if not !covered then begin
      if not !fetched then begin
        let r = rates problem carried in
        if Array.length r <> n_flows then
          invalid_arg "Newton_polish.solve: rates length";
        Incidence.link_loads_into inc ~rates:r ~out:ws.loads;
        carried_rates := r;
        fetched := true
      end;
      let best = ref (-1) in
      for j = lo to hi - 1 do
        let l = row_cols.(j) in
        if ws.loads.(l) >= caps.(l) -. (saturation_tol *. caps.(l))
           && (!best < 0 || l < !best)
        then best := l
      done;
      if !best < 0 then ok := false
      else begin
        let l = !best in
        if ws.mark.(l) < 0 then ws.mark.(l) <- 1;
        let marginal = Utility.deriv utils.(i) !carried_rates.(i) in
        if marginal > ws.start.(l) then ws.start.(l) <- marginal
      end
    end
  done;
  let n = collapse ws inc in
  ws.log_only <- !log_only;
  ws.steps <- 0;
  let solved = !ok && rounds ws inc utils n in
  Metrics.add m_steps ws.steps;
  if solved then begin
    Array.fill out 0 n_links 0.;
    for l = 0 to n_links - 1 do
      if ws.mark.(l) >= 0 then out.(l) <- ws.p.(ws.mark.(l))
    done
  end;
  solved
