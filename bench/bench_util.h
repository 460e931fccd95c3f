/// \file bench_util.h
/// Shared formatting and option parsing for the benchmark/report binaries.
#pragma once

#include <cstdio>
#include <string>

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

} // namespace taqos::benchutil
