// Umbrella header: the CADET public API.
//
//   #include "cadet/cadet.h"
//
// pulls in the protocol engines (ClientNode / EdgeNode / ServerNode), the
// wire codec, registration primitives, and the policy components (client
// economics table, edge cache). Simulation users additionally include
// "testbed/topology.h"; live-socket users include "net/udp.h".
#pragma once

#include "cadet/cache.h"
#include "cadet/client_node.h"
#include "cadet/config.h"
#include "cadet/economics.h"
#include "cadet/edge_node.h"
#include "cadet/node_common.h"
#include "cadet/packet.h"
#include "cadet/registration.h"
#include "cadet/seal.h"
#include "cadet/server_node.h"
