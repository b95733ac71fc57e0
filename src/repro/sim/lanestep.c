/*
 * One step of the lane kernel (repro.sim.batch) for k independent lanes:
 * the power pass, the exact RC update of paper Eq. 5 and the next step's
 * sensed maxima, in one call.  repro.sim.lanestep builds and loads it.
 *
 * Bit-identity with the stacked numpy pass (batch._Stacked) is the
 * contract, so every element is computed with that pass's operands in
 * its order, and must be built with -ffp-contract=off and without
 * -ffast-math:
 *
 *   u      = activity * ratio                  (per block)
 *   mean   = (0.0 + pairwise(u)) / n           (the unmonitored area's)
 *   power  = (u * (1 - idle) + idle) * peak    (+ leakage, if leaky)
 *   chip   = 0.0 + pairwise(power) + unmonitored
 *   steady = sink + power * R
 *   end    = steady + (start - steady) * decay
 *
 * pairwise() is numpy's float64 reduction order.  The decay is numpy's
 * own exp(-h / tau), passed in; leakage rows are numpy's too.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#ifndef LANESTEP_HASH
#define LANESTEP_HASH "unversioned"
#endif

/* The loader finds this string in the file before it loads it. */
const char lanestep_marker[] = "lanestep-hash:" LANESTEP_HASH;

const char *lanestep_hash(void) { return LANESTEP_HASH; }

/*
 * The stage buffers are C-contiguous, with one column per lane slot
 * (``lanes`` of them) and the k live lanes in the first k columns.
 * Field order matches repro.sim.lanestep.LaneStep.
 */
typedef struct {
    const double *activity;   /* (rows, lanes, n) activity rows */
    const double *ratios;     /* (lanes,) throughput ratios */
    double *states;           /* (rows + 1, lanes, n): step s starts on s */
    double *steady;           /* (rows, lanes, n) */
    double *chip;             /* (rows, lanes) chip power */
    double *powers;           /* (rows, lanes, n) history rows, or NULL */
    double *scratch;          /* (n,) the power row when powers is NULL */
    const double *leakage;    /* (k, n) leakage rows */
    const unsigned char *leaky; /* (k,) lanes whose leakage row counts */
    const double *peaks;      /* (n + 1,) block peaks, then unmonitored */
    const double *resistance; /* (n,) */
    const double *decay;      /* (n,) exp(-h / tau) */
    const int64_t *monitored; /* sensed block indices, lane after lane */
    const int64_t *offsets;   /* (k + 1,) lane r's: [offsets[r], [r + 1]) */
    double *sensed;           /* (k,) the next step's sensed maxima */
    double active;            /* 1 - idle */
    double idle;
    double count;             /* n, as a float */
    double sink;              /* heatsink temperature */
    long k;
    long n;
    long lanes;
} lane_step_t;

/* numpy's pairwise sum of n float64 values. */
static double pairwise(const double *a, long n)
{
    if (n < 8) {
        double res = 0.0;
        for (long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long i;
        for (i = 0; i < 8; i++)
            r[i] = a[i];
        for (i = 8; i < n - (n % 8); i += 8)
            for (long j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    long half = n / 2;
    half -= half % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/*
 * Step ``step`` for every live lane.  Returns a bit set: 1 when some
 * lane's chip power or end state is not finite, 2 when some lane's
 * sensed maximum must come from numpy (a NaN, whose propagation is
 * numpy's, or a zero maximum, whose sign numpy picks).
 */
int lane_step(const lane_step_t *c, long step)
{
    const long n = c->n;
    const long row = step * c->lanes * n;
    int status = 0;
    for (long r = 0; r < c->k; r++) {
        const long at = row + r * n;
        const double *activity = c->activity + at;
        const double *start = c->states + at;
        double *end = c->states + at + c->lanes * n;
        double *steady = c->steady + at;
        double *power = c->powers ? c->powers + at : c->scratch;
        const double ratio = c->ratios[r];

        for (long j = 0; j < n; j++)
            power[j] = activity[j] * ratio;
        const double mean = (0.0 + pairwise(power, n)) / c->count;
        const double unmonitored =
            (mean * c->active + c->idle) * c->peaks[n];
        for (long j = 0; j < n; j++)
            power[j] = (power[j] * c->active + c->idle) * c->peaks[j];
        if (c->leaky[r]) {
            const double *leak = c->leakage + r * n;
            for (long j = 0; j < n; j++)
                power[j] = power[j] + leak[j];
        }
        const double chip = (0.0 + pairwise(power, n)) + unmonitored;
        c->chip[step * c->lanes + r] = chip;

        int finite = isfinite(chip);
        for (long j = 0; j < n; j++) {
            const double level = c->sink + power[j] * c->resistance[j];
            const double value = level + (start[j] - level) * c->decay[j];
            steady[j] = level;
            end[j] = value;
            finite &= isfinite(value) != 0;
        }
        if (!finite)
            status |= 1;

        /* The next step senses this end row. */
        int64_t first = c->offsets[r], stop = c->offsets[r + 1];
        double peak;
        int nan;
        if (first == stop) {
            peak = end[0];
            nan = isnan(peak);
            for (long j = 1; j < n; j++) {
                if (isnan(end[j]))
                    nan = 1;
                else if (end[j] > peak)
                    peak = end[j];
            }
        } else {
            peak = end[c->monitored[first]];
            nan = isnan(peak);
            for (int64_t i = first + 1; i < stop; i++) {
                const double value = end[c->monitored[i]];
                if (isnan(value))
                    nan = 1;
                else if (value > peak)
                    peak = value;
            }
        }
        if (nan || peak == 0.0)
            status |= 2;
        c->sensed[r] = peak;
    }
    return status;
}
