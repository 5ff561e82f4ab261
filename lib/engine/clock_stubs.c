/* Monotonic wall-clock for the engine's phase timers.  CLOCK_MONOTONIC
   is immune to NTP step adjustments, so accumulated phase durations can
   never go backwards (Unix.gettimeofday, the previous source, can). */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <string.h>
#include <time.h>

/* Native entry: unboxed double return, so timing a hot phase does not
   allocate (the OCaml side declares it [@unboxed] [@@noalloc]). */
double te_monotonic_seconds_unboxed(value unit)
{
  struct timespec ts;
  (void) unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double) ts.tv_sec + (double) ts.tv_nsec * 1e-9;
}

/* Bytecode entry: boxes the result. */
CAMLprim value te_monotonic_seconds(value unit)
{
  return caml_copy_double(te_monotonic_seconds_unboxed(unit));
}

/* Copies [len] elements between int arrays with one memmove.  Ints are
   immediates: no write barrier is needed, so the copy may bypass
   caml_modify even into the major heap.  Allocates nothing (the OCaml
   side declares it [@@noalloc]); the caller checks the bounds. */
value te_blit_ints(value src, value src_pos, value dst, value dst_pos,
                   value len)
{
  memmove(Op_val(dst) + Long_val(dst_pos), Op_val(src) + Long_val(src_pos),
          Long_val(len) * sizeof(value));
  return Val_unit;
}
