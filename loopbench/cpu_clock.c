/* CPU time of the calling thread, for the benchmark's timings. */

#include <stdint.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value loopbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return caml_copy_int64((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec);
}
