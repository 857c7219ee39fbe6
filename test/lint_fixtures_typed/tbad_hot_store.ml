(* Typed hot-alloc bad cases for boxed float stores. Expected findings:
   the float field of a mixed record written in [advance], and [:=] on a
   float ref bound outside the hot body in [accumulate]. *)

type clock = { mutable now : float; mutable ticks : int }

let[@nf.hot] advance c (dt : float) =
  c.now <- c.now +. dt;
  c.ticks <- c.ticks + 1

let total = ref 0.

let[@nf.hot] accumulate (x : float) = total := !total +. x
