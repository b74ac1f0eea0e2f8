/* Host parallel-capacity probe: a compute-bound OpenMP reduction with no
 * memory traffic.  Prints its wall time in seconds; run it at 1 thread and
 * at N threads and divide to get the speedup the host gives right now. */
#include <math.h>
#include <omp.h>
#include <stdio.h>

int main(void) {
    const long n = 50000000L;
    double s = 0.0;
    double t0 = omp_get_wtime();
    long i;
#pragma omp parallel for reduction(+:s)
    for (i = 0; i < n; i++) {
        s += sqrt((double)i + 1.0);
    }
    printf("%.9f %.1f\n", omp_get_wtime() - t0, s);
    return 0;
}
