/// \file taqos.h
/// Umbrella header: the public API of the taqos library.
///
/// Quick tour:
///  - topo/topology.h      — topology kinds + ColumnConfig (Table 1)
///  - topo/network.h       — topology-agnostic network substrate
///  - sim/net_sim.h        — the cycle-level simulation engine
///  - sim/fabric_sim.h     — the one simulator of columns, chips and
///                           multi-chip fabrics
///  - sim/column_sim.h     — one shared column (the row-less fabric)
///  - sim/chip_sim.h       — whole-chip simulation (rows + QOS column)
///  - traffic/pattern.h    — synthetic traffic configuration
///  - traffic/workloads.h  — Table-2 hotspot, adversarial Workloads 1 & 2
///  - qos/pvc.h            — Preemptive Virtual Clock parameters
///  - core/experiments.h   — one runner per paper table/figure
///  - power/router_power.h — analytic area/energy models (32 nm)
///  - chip/*               — full-chip substrate: MECS routing, convex
///                           domains, OS scheduler, isolation audit
#pragma once

#include "chip/allocator.h"
#include "chip/chip_cost.h"
#include "chip/domain.h"
#include "chip/geometry.h"
#include "chip/isolation.h"
#include "chip/os.h"
#include "chip/routing.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/experiments.h"
#include "core/maxmin.h"
#include "power/router_power.h"
#include "power/tech.h"
#include "qos/pvc.h"
#include "sim/chip_sim.h"
#include "sim/column_sim.h"
#include "sim/fabric_sim.h"
#include "sim/net_sim.h"
#include "topo/fabric.h"
#include "topo/geometry.h"
#include "topo/network.h"
#include "topo/topology.h"
#include "traffic/generator.h"
#include "traffic/pattern.h"
#include "traffic/workloads.h"
