/// \file bench_util.h
/// Shared formatting and option parsing for the benchmark/report binaries.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/strings.h"

namespace taqos::benchutil {

inline void
header(const std::string &title, const std::string &paperRef)
{
    std::printf("================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paperRef.c_str());
    std::printf("================================================================\n\n");
}

inline std::string
pct(double v)
{
    return strFormat("%.2f%%", v);
}

inline std::string
num(double v, int prec = 2)
{
    return strFormat("%.*f", prec, v);
}

/// The rates step, 2*step, ... up to maxrate (rateRange), from
/// `maxrate=` and `step=`. Exits with one line unless both are > 0, so a
/// zero step cannot loop forever and a zero maximum cannot fall back to a
/// sweep's default rate, and on a grid of more than kMaxGridRates rates.
inline std::vector<double>
rateGrid(const OptionMap &opts, double maxRateDflt, double stepDflt)
{
    const double maxRate = opts.getDouble("maxrate", maxRateDflt);
    const double step = opts.getDouble("step", stepDflt);
    const std::string text = strFormat("%g:%g", maxRate, step);
    if (step <= 0.0 || maxRate <= 0.0) {
        optionError("bad rates '" + text +
                    "': want a,b,c or lo:hi:step (step > 0)");
    }
    return rateRange(step, maxRate, step, text);
}

} // namespace taqos::benchutil
