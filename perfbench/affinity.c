/* CPU affinity for the benchmark's timed loops. The loop moves its thread
   to another of the process's CPUs between passes; see main.ml. Where
   affinity cannot be set, the process has one CPU as far as the loop is
   concerned and nothing moves. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>

static cpu_set_t allowed;
static int allowed_count = -1;

static void load_allowed(void)
{
  if (allowed_count >= 0) return;
  CPU_ZERO(&allowed);
  allowed_count = sched_getaffinity(0, sizeof allowed, &allowed) == 0 ? CPU_COUNT(&allowed) : 0;
}

/* The number of CPUs the process may run on (0 if unknown). */
value perfbench_cpu_count(value unit)
{
  (void)unit;
  load_allowed();
  return Val_int(allowed_count);
}

/* Pins the calling thread to the [k]-th CPU the process may run on, or,
   when [k] is negative, lets it run on all of them again. */
value perfbench_pin_cpu(value k)
{
  load_allowed();
  if (allowed_count <= 0) return Val_false;
  cpu_set_t set;
  if (Int_val(k) < 0) {
    set = allowed;
  } else {
    int want = Int_val(k) % allowed_count, seen = 0;
    CPU_ZERO(&set);
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++)
      if (CPU_ISSET(cpu, &allowed) && seen++ == want) {
        CPU_SET(cpu, &set);
        break;
      }
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

#else

value perfbench_cpu_count(value unit)
{
  (void)unit;
  return Val_int(0);
}

value perfbench_pin_cpu(value k)
{
  (void)k;
  return Val_false;
}

#endif
