package pdm

// ExtentBytes and ExtentBytesPut let the external tests, which build
// clusters, count the storage that disks give back to the free list.
const ExtentBytes = extentBytes

var ExtentBytesPut = extentPool.BytesPut
